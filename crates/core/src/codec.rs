//! Compact binary container format for published (locked) models.
//!
//! The paper's flow uploads an obfuscated model to a public model-sharing
//! platform. This module defines that wire format: a versioned, magic-tagged
//! binary encoding of [`LockedModel`](crate::LockedModel) built on the
//! `bytes` crate. No self-describing serialization framework is used — the
//! format is explicit and stable so independently written deployments can
//! parse it.

use std::error::Error;
use std::fmt;

#[cfg(test)]
use hpnn_bytes::Bytes;
use hpnn_bytes::{Buf, BufMut, BytesMut};
use hpnn_nn::{ActKind, LayerSpec, NetworkSpec};
use hpnn_tensor::{Conv2dGeom, PoolGeom, Shape, Tensor};

use crate::schedule::{Schedule, ScheduleKind};

/// Magic bytes prefixing every container.
pub const MAGIC: [u8; 4] = *b"HPNN";
/// Current container format version.
pub const VERSION: u16 = 1;

/// Error decoding a model container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Stream does not begin with `HPNN`.
    BadMagic([u8; 4]),
    /// Unsupported container version.
    BadVersion(u16),
    /// Stream ended before a field was complete.
    UnexpectedEnd {
        /// What was being decoded.
        context: &'static str,
    },
    /// An enum tag byte was invalid.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The invalid tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A declared length is implausibly large for the remaining input.
    LengthOverflow {
        /// What was being decoded.
        context: &'static str,
        /// Declared element count.
        declared: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}, expected \"HPNN\""),
            DecodeError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            DecodeError::UnexpectedEnd { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            DecodeError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            DecodeError::LengthOverflow { context, declared } => {
                write!(
                    f,
                    "declared length {declared} too large while decoding {context}"
                )
            }
        }
    }
}

impl Error for DecodeError {}

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::UnexpectedEnd { context })
    } else {
        Ok(())
    }
}

fn get_len(buf: &mut impl Buf, context: &'static str) -> Result<usize, DecodeError> {
    need(buf, 8, context)?;
    let declared = buf.get_u64_le();
    // A length can never exceed the remaining bytes (elements are ≥1 byte).
    if declared > buf.remaining() as u64 {
        return Err(DecodeError::LengthOverflow { context, declared });
    }
    Ok(declared as usize)
}

pub(crate) fn put_string(buf: &mut BytesMut, s: &str) {
    hpnn_bytes::put_frame_u64(buf, s.as_bytes());
}

pub(crate) fn get_string(buf: &mut impl Buf) -> Result<String, DecodeError> {
    // Byte-string fields are u64-length-prefixed frames; the shared helper
    // caps the declared length at the bytes actually remaining (string
    // elements are one byte each, so anything longer is an overflow, and
    // anything shorter-but-incomplete is a truncated stream).
    let max = buf.remaining().saturating_sub(8);
    let bytes = match hpnn_bytes::try_get_frame_u64(buf, max) {
        Ok(Some(bytes)) => bytes,
        Ok(None) => return Err(DecodeError::UnexpectedEnd { context: "string" }),
        Err(e) => {
            return Err(DecodeError::LengthOverflow {
                context: "string",
                declared: e.declared,
            })
        }
    };
    String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

pub(crate) fn put_usize_vec(buf: &mut BytesMut, v: &[usize]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_u64_le(x as u64);
    }
}

pub(crate) fn get_usize_vec(buf: &mut impl Buf) -> Result<Vec<usize>, DecodeError> {
    let len = get_len(buf, "usize vec")?;
    need(buf, len.saturating_mul(8), "usize vec body")?;
    Ok((0..len).map(|_| buf.get_u64_le() as usize).collect())
}

pub(crate) fn put_tensor(buf: &mut BytesMut, t: &Tensor) {
    put_usize_vec(buf, t.shape().dims());
    buf.put_u64_le(t.len() as u64);
    for &v in t.data() {
        buf.put_f32_le(v);
    }
}

pub(crate) fn get_tensor(buf: &mut impl Buf) -> Result<Tensor, DecodeError> {
    let dims = get_usize_vec(buf)?;
    let len = get_len(buf, "tensor")?;
    need(buf, len.saturating_mul(4), "tensor body")?;
    let data: Vec<f32> = (0..len).map(|_| buf.get_f32_le()).collect();
    Tensor::from_vec(Shape::new(dims), data).map_err(|_| DecodeError::BadTag {
        context: "tensor shape/volume",
        tag: 0,
    })
}

fn put_act_kind(buf: &mut BytesMut, kind: ActKind) {
    buf.put_u8(match kind {
        ActKind::Relu => 0,
        ActKind::Sigmoid => 1,
        ActKind::Tanh => 2,
    });
}

fn get_act_kind(buf: &mut impl Buf) -> Result<ActKind, DecodeError> {
    need(buf, 1, "activation kind")?;
    match buf.get_u8() {
        0 => Ok(ActKind::Relu),
        1 => Ok(ActKind::Sigmoid),
        2 => Ok(ActKind::Tanh),
        tag => Err(DecodeError::BadTag {
            context: "activation kind",
            tag,
        }),
    }
}

fn put_conv_geom(buf: &mut BytesMut, g: &Conv2dGeom) {
    for v in [g.in_c, g.in_h, g.in_w, g.out_c, g.kernel, g.stride, g.pad] {
        buf.put_u64_le(v as u64);
    }
}

fn get_conv_geom(buf: &mut impl Buf) -> Result<Conv2dGeom, DecodeError> {
    need(buf, 56, "conv geometry")?;
    let mut v = [0usize; 7];
    for x in &mut v {
        *x = buf.get_u64_le() as usize;
    }
    Conv2dGeom::new(v[0], v[1], v[2], v[3], v[4], v[5], v[6]).map_err(|_| DecodeError::BadTag {
        context: "conv geometry",
        tag: 0,
    })
}

fn put_pool_geom(buf: &mut BytesMut, g: &PoolGeom) {
    for v in [g.in_h, g.in_w, g.window, g.stride] {
        buf.put_u64_le(v as u64);
    }
}

fn get_pool_geom(buf: &mut impl Buf) -> Result<PoolGeom, DecodeError> {
    need(buf, 32, "pool geometry")?;
    let mut v = [0usize; 4];
    for x in &mut v {
        *x = buf.get_u64_le() as usize;
    }
    PoolGeom::new(v[0], v[1], v[2], v[3]).map_err(|_| DecodeError::BadTag {
        context: "pool geometry",
        tag: 0,
    })
}

fn put_layer_spec(buf: &mut BytesMut, layer: &LayerSpec) {
    match layer {
        LayerSpec::Dense {
            in_features,
            out_features,
        } => {
            buf.put_u8(0);
            buf.put_u64_le(*in_features as u64);
            buf.put_u64_le(*out_features as u64);
        }
        LayerSpec::Activation { kind, features } => {
            buf.put_u8(1);
            put_act_kind(buf, *kind);
            buf.put_u64_le(*features as u64);
        }
        LayerSpec::Conv2d { geom } => {
            buf.put_u8(2);
            put_conv_geom(buf, geom);
        }
        LayerSpec::MaxPool2d { channels, geom } => {
            buf.put_u8(3);
            buf.put_u64_le(*channels as u64);
            put_pool_geom(buf, geom);
        }
        LayerSpec::Residual {
            in_c,
            h,
            w,
            out_c,
            stride,
        } => {
            buf.put_u8(4);
            for v in [in_c, h, w, out_c, stride] {
                buf.put_u64_le(*v as u64);
            }
        }
    }
}

fn get_layer_spec(buf: &mut impl Buf) -> Result<LayerSpec, DecodeError> {
    need(buf, 1, "layer tag")?;
    match buf.get_u8() {
        0 => {
            need(buf, 16, "dense spec")?;
            Ok(LayerSpec::Dense {
                in_features: buf.get_u64_le() as usize,
                out_features: buf.get_u64_le() as usize,
            })
        }
        1 => {
            let kind = get_act_kind(buf)?;
            need(buf, 8, "activation features")?;
            Ok(LayerSpec::Activation {
                kind,
                features: buf.get_u64_le() as usize,
            })
        }
        2 => Ok(LayerSpec::Conv2d {
            geom: get_conv_geom(buf)?,
        }),
        3 => {
            need(buf, 8, "pool channels")?;
            let channels = buf.get_u64_le() as usize;
            Ok(LayerSpec::MaxPool2d {
                channels,
                geom: get_pool_geom(buf)?,
            })
        }
        4 => {
            need(buf, 40, "residual spec")?;
            let mut v = [0usize; 5];
            for x in &mut v {
                *x = buf.get_u64_le() as usize;
            }
            Ok(LayerSpec::Residual {
                in_c: v[0],
                h: v[1],
                w: v[2],
                out_c: v[3],
                stride: v[4],
            })
        }
        tag => Err(DecodeError::BadTag {
            context: "layer spec",
            tag,
        }),
    }
}

pub(crate) fn put_network_spec(buf: &mut BytesMut, spec: &NetworkSpec) {
    buf.put_u64_le(spec.in_features as u64);
    buf.put_u64_le(spec.layers.len() as u64);
    for layer in &spec.layers {
        put_layer_spec(buf, layer);
    }
}

pub(crate) fn get_network_spec(buf: &mut impl Buf) -> Result<NetworkSpec, DecodeError> {
    need(buf, 8, "spec in_features")?;
    let in_features = buf.get_u64_le() as usize;
    let n = get_len(buf, "spec layers")?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        layers.push(get_layer_spec(buf)?);
    }
    Ok(NetworkSpec::new(in_features, layers))
}

pub(crate) fn put_schedule(buf: &mut BytesMut, s: &Schedule) {
    buf.put_u8(match s.kind() {
        ScheduleKind::RoundRobin => 0,
        ScheduleKind::Blocked => 1,
        ScheduleKind::Permuted => 2,
    });
    buf.put_u64_le(s.num_neurons() as u64);
    buf.put_u64_le(s.seed());
}

pub(crate) fn get_schedule(buf: &mut impl Buf) -> Result<Schedule, DecodeError> {
    need(buf, 17, "schedule")?;
    let kind = match buf.get_u8() {
        0 => ScheduleKind::RoundRobin,
        1 => ScheduleKind::Blocked,
        2 => ScheduleKind::Permuted,
        tag => {
            return Err(DecodeError::BadTag {
                context: "schedule kind",
                tag,
            })
        }
    };
    let num_neurons = buf.get_u64_le() as usize;
    let seed = buf.get_u64_le();
    Ok(Schedule::new(num_neurons, kind, seed))
}

/// Writes the container header.
pub(crate) fn put_header(buf: &mut BytesMut) {
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
}

/// Validates the container header.
pub(crate) fn check_header(buf: &mut impl Buf) -> Result<(), DecodeError> {
    need(buf, 6, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    Ok(())
}

/// Encodes a list of weight tensors.
pub(crate) fn put_tensors(buf: &mut BytesMut, tensors: &[Tensor]) {
    buf.put_u64_le(tensors.len() as u64);
    for t in tensors {
        put_tensor(buf, t);
    }
}

/// Decodes a list of weight tensors.
pub(crate) fn get_tensors(buf: &mut impl Buf) -> Result<Vec<Tensor>, DecodeError> {
    let n = get_len(buf, "tensor list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_tensor(buf)?);
    }
    Ok(out)
}

/// Freezes a builder into immutable bytes (convenience for tests).
#[cfg(test)]
pub(crate) fn freeze(buf: BytesMut) -> Bytes {
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_nn::mlp;

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "hello HPNN");
        let mut b = freeze(buf);
        assert_eq!(get_string(&mut b).unwrap(), "hello HPNN");
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_vec([2usize, 3], vec![1., -2., 3., 4.5, 0., -0.5]).unwrap();
        let mut buf = BytesMut::new();
        put_tensor(&mut buf, &t);
        let mut b = freeze(buf);
        assert_eq!(get_tensor(&mut b).unwrap(), t);
    }

    #[test]
    fn network_spec_roundtrip() {
        let spec = mlp(10, &[8, 4], 3);
        let mut buf = BytesMut::new();
        put_network_spec(&mut buf, &spec);
        let mut b = freeze(buf);
        assert_eq!(get_network_spec(&mut b).unwrap(), spec);
    }

    #[test]
    fn conv_spec_roundtrip() {
        let spec = hpnn_nn::cnn1(hpnn_nn::ImageDims::new(1, 12, 12), 10, 0.5).unwrap();
        let mut buf = BytesMut::new();
        put_network_spec(&mut buf, &spec);
        let mut b = freeze(buf);
        assert_eq!(get_network_spec(&mut b).unwrap(), spec);
    }

    #[test]
    fn resnet_spec_roundtrip() {
        let spec = hpnn_nn::resnet(hpnn_nn::ImageDims::new(1, 16, 16), 10, 0.5).unwrap();
        let mut buf = BytesMut::new();
        put_network_spec(&mut buf, &spec);
        let mut b = freeze(buf);
        assert_eq!(get_network_spec(&mut b).unwrap(), spec);
    }

    #[test]
    fn retired_batchnorm_tag_is_refused() {
        // Layer tag 5 once carried a batch-norm layer (`channels`, `plane`).
        // A stream that still holds one is refused, typed, not panicked on.
        let mut spec = BytesMut::new();
        spec.put_u64_le(8); // in_features
        spec.put_u64_le(2); // two layers
        spec.put_u8(0); // dense 8 -> 4
        spec.put_u64_le(8);
        spec.put_u64_le(4);
        spec.put_u8(5); // the retired tag and its old payload
        spec.put_u64_le(4);
        spec.put_u64_le(1);
        let refused = DecodeError::BadTag {
            context: "layer spec",
            tag: 5,
        };
        assert_eq!(
            get_network_spec(&mut freeze(spec.clone())).err(),
            Some(refused.clone())
        );

        let mut container = BytesMut::new();
        put_header(&mut container);
        for field in ["name", "dataset", "notes"] {
            put_string(&mut container, field);
        }
        container.put_slice(&spec);
        put_schedule(
            &mut container,
            &Schedule::new(4, ScheduleKind::RoundRobin, 1),
        );
        put_tensors(&mut container, &[]);
        assert_eq!(
            crate::LockedModel::from_bytes(freeze(container)).err(),
            Some(refused)
        );
    }

    #[test]
    fn wrapping_conv_geometry_is_refused() {
        // A padding of 2^63 once wrapped `2·pad` to 0 and decoded as a
        // 4×4 convolution (and panicked in a debug build). Every field of
        // the geometry comes from the stream, so the overflow is refused,
        // typed, before any layer is built.
        let mut spec = BytesMut::new();
        spec.put_u64_le(16); // in_features
        spec.put_u64_le(1); // one layer
        spec.put_u8(2); // conv: c, h, w, f, k, stride, pad
        for v in [1, 4, 4, 1, 3, 1, 1u64 << 63] {
            spec.put_u64_le(v);
        }
        let refused = DecodeError::BadTag {
            context: "conv geometry",
            tag: 0,
        };
        let mut container = BytesMut::new();
        put_header(&mut container);
        for field in ["name", "dataset", "notes"] {
            put_string(&mut container, field);
        }
        container.put_slice(&spec);
        put_schedule(
            &mut container,
            &Schedule::new(0, ScheduleKind::RoundRobin, 1),
        );
        put_tensors(&mut container, &[]);
        assert_eq!(
            crate::LockedModel::from_bytes(freeze(container)).err(),
            Some(refused)
        );
    }

    #[test]
    fn schedule_roundtrip() {
        let s = Schedule::new(500, ScheduleKind::Permuted, 99);
        let mut buf = BytesMut::new();
        put_schedule(&mut buf, &s);
        let mut b = freeze(buf);
        assert_eq!(get_schedule(&mut b).unwrap(), s);
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut b = Bytes::from_static(b"NOPE\x01\x00");
        assert!(matches!(
            check_header(&mut b),
            Err(DecodeError::BadMagic(_))
        ));
    }

    #[test]
    fn header_rejects_bad_version() {
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(77);
        let mut b = freeze(buf);
        assert_eq!(check_header(&mut b), Err(DecodeError::BadVersion(77)));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        // Encode a full spec then check every prefix fails cleanly.
        let spec = mlp(4, &[3], 2);
        let mut buf = BytesMut::new();
        put_network_spec(&mut buf, &spec);
        let full = freeze(buf);
        for cut in 0..full.len() {
            let mut prefix = full.slice(..cut);
            assert!(
                get_network_spec(&mut prefix).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn length_overflow_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX); // absurd string length
        let mut b = freeze(buf);
        assert!(matches!(
            get_string(&mut b),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_layer_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(4); // in_features
        buf.put_u64_le(1); // one layer
        buf.put_u8(9); // invalid tag
        let mut b = freeze(buf);
        assert!(matches!(
            get_network_spec(&mut b),
            Err(DecodeError::BadTag {
                context: "layer spec",
                tag: 9
            })
        ));
    }
}
