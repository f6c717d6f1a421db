//! Property-based tests for the AI engine: layered-version reconstruction
//! and storage accounting.

use neurdb_engine::ModelManager;
use neurdb_nn::{mlp_spec, Model};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Versioned reconstruction: after an arbitrary sequence of
    /// incremental updates, `layer_states_at(v)` returns, for every layer,
    /// exactly the newest state written at or before v — checked against a
    /// straightforward reference implementation.
    #[test]
    fn layered_versions_match_reference(
        updates in prop::collection::vec(
            (0u32..3, any::<u8>()), // (layer id, byte to poke)
            1..20
        ),
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = mlp_spec(&[3, 4, 2]); // 3 layers: Linear, Relu, Linear
        let model = Model::from_spec(spec.clone(), &mut rng);
        let mm = ModelManager::new();
        let base_states = model.layer_states();
        let (mid, v0) = mm.register(spec, base_states.clone());
        // Reference: per layer, (version, state) history.
        let mut reference: Vec<Vec<(u64, Vec<u8>)>> =
            base_states.iter().map(|s| vec![(v0, s.clone())]).collect();
        let mut versions = vec![v0];
        for (lid, poke) in updates {
            let lid = lid as usize;
            let mut state = reference[lid].last().unwrap().1.clone();
            if state.is_empty() {
                // Activation layers have empty state; writing them is a
                // no-op version-wise but still a valid incremental row.
                let v = mm.save_incremental(mid, vec![(lid as u32, state)]).unwrap();
                reference[lid].push((v, Vec::new()));
                versions.push(v);
                continue;
            }
            let idx = poke as usize % state.len();
            state[idx] ^= 0x5A;
            let v = mm.save_incremental(mid, vec![(lid as u32, state.clone())]).unwrap();
            reference[lid].push((v, state));
            versions.push(v);
        }
        // Every recorded version reconstructs to the reference states.
        for &v in &versions {
            let got = mm.layer_states_at(mid, v).unwrap();
            for (lid, layer_hist) in reference.iter().enumerate() {
                let want = &layer_hist
                    .iter()
                    .rev()
                    .find(|(ts, _)| *ts <= v)
                    .unwrap()
                    .1;
                prop_assert_eq!(&got[lid], want, "layer {} at version {}", lid, v);
            }
        }
        prop_assert_eq!(mm.versions(mid).unwrap().len(), versions.len());
    }

    /// Storage accounting: stored bytes never exceed the naive full-copy
    /// scheme, and savings are in [0, 1).
    #[test]
    fn storage_report_bounds(n_updates in 0usize..12, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = mlp_spec(&[4, 6, 1]);
        let model = Model::from_spec(spec.clone(), &mut rng);
        let mm = ModelManager::new();
        let (mid, _) = mm.register(spec, model.layer_states());
        let last = model.layer_states().pop().unwrap();
        for _ in 0..n_updates {
            mm.save_incremental(mid, vec![(2, last.clone())]).unwrap();
        }
        let r = mm.storage_report();
        prop_assert!(r.stored_bytes <= r.naive_bytes);
        prop_assert!((0.0..1.0).contains(&r.savings()) || r.naive_bytes == 0);
        prop_assert_eq!(r.versions, 1 + n_updates);
    }
}
