//! Registry of locked models available for serving.
//!
//! Each entry pairs a published [`LockedModel`] with an optional
//! [`KeyVault`]. Entries with a vault serve the **keyed** path (trusted
//! hardware resolves the lock factors); every entry also serves the
//! **keyless** path (the adversary's stolen-weights deployment), so a
//! single server can demonstrate both sides of the paper's Table I.

use hpnn_core::{KeyVault, LockedModel};

use crate::protocol::ModelInfo;

/// One servable model.
#[derive(Debug)]
pub struct ServeEntry {
    /// Name clients see in `HELLO_OK`.
    pub name: String,
    /// The published container.
    pub model: LockedModel,
    /// Sealed key, when this server is an authorized deployment.
    pub vault: Option<KeyVault>,
}

/// An ordered collection of servable models; a model's index is its wire id.
#[derive(Debug, Default)]
pub struct ServeRegistry {
    entries: Vec<ServeEntry>,
}

impl ServeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ServeRegistry::default()
    }

    /// Registers a model and returns its wire id.
    ///
    /// # Panics
    ///
    /// Panics if the registry already holds `u16::MAX + 1` models.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        model: LockedModel,
        vault: Option<KeyVault>,
    ) -> u16 {
        assert!(
            self.entries.len() <= u16::MAX as usize,
            "model registry full"
        );
        let id = self.entries.len() as u16;
        self.entries.push(ServeEntry {
            name: name.into(),
            model,
            vault,
        });
        id
    }

    /// Entry for a wire id.
    pub fn get(&self, id: u16) -> Option<&ServeEntry> {
        self.entries.get(id as usize)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ServeEntry> {
        self.entries.iter()
    }

    /// Wire-facing descriptions of every model, in id order.
    pub fn model_infos(&self) -> Vec<ModelInfo> {
        self.entries
            .iter()
            .enumerate()
            .map(|(id, e)| ModelInfo {
                id: id as u16,
                name: e.name.clone(),
                in_features: e.model.spec().in_features,
                out_features: e.model.spec().out_features(),
                has_key: e.vault.is_some(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_core::{HpnnKey, ModelMetadata, Schedule, ScheduleKind};
    use hpnn_nn::mlp;
    use hpnn_tensor::Rng;

    fn tiny_model(seed: u64) -> (LockedModel, HpnnKey) {
        let mut rng = Rng::new(seed);
        let spec = mlp(4, &[5], 3);
        let key = HpnnKey::random(&mut rng);
        let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
        let mut net = spec.build(&mut rng).unwrap();
        net.install_lock_factors(&schedule.derive_lock_factors(&key));
        (
            LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default()),
            key,
        )
    }

    #[test]
    fn ids_are_assigned_in_order() {
        let (m, key) = tiny_model(1);
        let mut reg = ServeRegistry::new();
        let a = reg.add("keyed", m.clone(), Some(KeyVault::provision(key, "dev")));
        let b = reg.add("keyless", m, None);
        assert_eq!((a, b), (0, 1));
        assert_eq!(reg.len(), 2);
        assert!(reg.get(0).unwrap().vault.is_some());
        assert!(reg.get(1).unwrap().vault.is_none());
        assert!(reg.get(2).is_none());
    }

    #[test]
    fn model_infos_reflect_entries() {
        let (m, key) = tiny_model(2);
        let mut reg = ServeRegistry::new();
        reg.add("mlp", m, Some(KeyVault::provision(key, "dev")));
        let infos = reg.model_infos();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].id, 0);
        assert_eq!(infos[0].name, "mlp");
        assert_eq!(infos[0].in_features, 4);
        assert_eq!(infos[0].out_features, 3);
        assert!(infos[0].has_key);
    }
}
