//! # hpnn-attacks
//!
//! Attack suite against HPNN-locked models, implementing the paper's threat
//! model (Sec. IV-B/C) and extensions:
//!
//! * [`FineTuneAttack`] — model fine-tuning from stolen or random weights
//!   with an α-fraction thief dataset (Figs. 5 and 7, Table I cols 6–9).
//! * [`run_sweep`] — attacker-side hyperparameter sweeps (Fig. 6).
//! * [`Attacker`] — the key-less attacker with an accuracy oracle: key
//!   guessing, key-distance profiles, and every greedy key-bit or sign
//!   search as one [`Attacker::climb`] over lock factors (extensions).
//! * [`transcript`] — what an untrusted worker on both sides of a locked
//!   layer reads off its own exchanges: the key, in two requests.
//!
//! ## Example
//!
//! ```no_run
//! use hpnn_attacks::{AttackInit, FineTuneAttack};
//! use hpnn_core::LockedModel;
//! use hpnn_data::Dataset;
//!
//! # fn demo(model: &LockedModel, ds: &Dataset) -> Result<(), Box<dyn std::error::Error>> {
//! // The attacker downloads the model and fine-tunes with 10% thief data.
//! let result = FineTuneAttack::new(AttackInit::Stolen, 0.10).run(model, ds)?;
//! println!("attacker reaches {:.1}%", result.best_accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod attacker;
mod finetune;
#[cfg(test)]
mod signflip;
mod sweep;
pub mod transcript;
mod transform;

pub use attacker::{Attacker, Outcome};
pub use finetune::{leakage_experiment, AttackInit, FineTuneAttack, FineTuneResult};
pub use sweep::{run_sweep, SweepCell, SweepGrid, SweepReport};
pub use transform::{transformation_sweep, Transform, TransformResult};
