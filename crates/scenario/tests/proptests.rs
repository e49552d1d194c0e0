//! Property tests: any well-formed scenario survives the file round-trip
//! (`Scenario` → TOML text → `Scenario`) bit-for-bit, and key-path
//! overrides never panic, whatever the path and value.

use proptest::prelude::*;

use dagfl_core::{
    AsyncConfig, ComputeProfile, DagConfig, DelayModel, Normalization, StaleTipPolicy, TipSelector,
};
use dagfl_scenario::{AttackSpec, DatasetSpec, ExecutionSpec, Scale, Scenario};

#[allow(clippy::too_many_arguments)]
fn build_scenario(
    kind: u8,
    clients: usize,
    samples: usize,
    seed: u64,
    mode: u8,
    selector_kind: u8,
    alpha: f32,
    dynamic: bool,
    rounds: usize,
    cpr: usize,
    batches: usize,
    lr: f32,
    attack_on: bool,
    fraction: f64,
    track: usize,
    window: usize,
    delay_kind: u8,
    delay: f64,
    policy_kind: u8,
    compute_kind: u8,
) -> Scenario {
    let dataset = match kind {
        0 => DatasetSpec::Fmnist {
            clients,
            samples,
            relaxation: (alpha / 200.0).min(0.9),
            seed,
        },
        1 => DatasetSpec::FmnistAuthor {
            clients,
            samples,
            seed,
        },
        2 => DatasetSpec::Poets {
            clients_per_language: clients,
            samples,
            seq_len: 12,
            seed,
        },
        3 => DatasetSpec::Cifar {
            clients,
            samples,
            seed,
        },
        _ => DatasetSpec::FedProx {
            clients,
            min_samples: samples,
            max_samples: samples + 50,
            seed,
        },
    };
    let normalization = if dynamic {
        Normalization::Dynamic
    } else {
        Normalization::Simple
    };
    let tip_selector = match selector_kind {
        0 => TipSelector::Accuracy {
            alpha,
            normalization,
        },
        1 => TipSelector::Random,
        _ => TipSelector::CumulativeWeight { alpha },
    };
    let dag = DagConfig {
        rounds,
        clients_per_round: cpr.min(dataset.num_clients()),
        local_batches: batches,
        learning_rate: lr,
        tip_selector,
        seed,
        ..DagConfig::default()
    };
    let rounds_mode = mode == 0;
    let execution = if rounds_mode {
        ExecutionSpec::Rounds(dag)
    } else {
        let delay_model = match delay_kind {
            0 => DelayModel::Constant { delay },
            1 => DelayModel::UniformJitter {
                base: delay,
                jitter: delay / 2.0,
            },
            _ => DelayModel::Cohorts {
                slow_fraction: fraction.min(1.0),
                fast: delay,
                slow: delay * 4.0,
                jitter: 0.5,
            },
        };
        let stale_policy = match policy_kind {
            0 => StaleTipPolicy::PublishAnyway,
            1 => StaleTipPolicy::Reselect,
            _ => StaleTipPolicy::Discard,
        };
        let compute = match compute_kind {
            0 => ComputeProfile::Uniform,
            1 => ComputeProfile::TwoSpeed {
                slow_fraction: fraction.min(1.0),
                slowdown: 4.0,
            },
            _ => ComputeProfile::MatchNetworkCohort { slowdown: 2.5 },
        };
        ExecutionSpec::asynchronous(
            AsyncConfig {
                dag,
                total_activations: rounds * cpr.max(1),
                mean_interarrival: delay.max(0.1),
                delay: delay_model,
                compute,
                train_time: delay / 4.0,
                stale_policy,
                gossip_fanout: 0,
                workers: usize::from(policy_kind) + 1,
            },
            Default::default(),
        )
    };
    let mut scenario = Scenario::new("generated", dataset).with_execution(execution);
    if rounds_mode && attack_on {
        scenario = scenario.with_attack(AttackSpec {
            fraction,
            clean_rounds: rounds,
            attack_rounds: rounds.max(1),
            class_a: 3,
            class_b: 8,
            measure_every: track.max(1),
        });
    } else if rounds_mode && track > 0 {
        scenario = scenario.tracking(track);
    }
    if window % 2 == 0 {
        scenario = scenario.with_csv(format!("series_{window}"));
    }
    scenario.with_recent_window(window)
}

proptest! {
    #[test]
    fn any_scenario_survives_the_file_round_trip(
        (kind, clients, samples, seed) in (0u8..5, 1usize..30, 10usize..120, 0u64..1_000_000),
        (mode, selector_kind, alpha, dynamic) in (0u8..2, 0u8..3, 0.01f32..150.0, any::<bool>()),
        (rounds, cpr, batches, lr) in (1usize..60, 1usize..12, 1usize..20, 0.001f32..1.0),
        (attack_on, fraction, track, window) in (any::<bool>(), 0.0f64..1.0, 0usize..6, 1usize..60),
        (delay_kind, delay, policy_kind, compute_kind) in (0u8..3, 0.1f64..10.0, 0u8..3, 0u8..3),
    ) {
        let scenario = build_scenario(
            kind, clients, samples, seed, mode, selector_kind, alpha, dynamic, rounds, cpr,
            batches, lr, attack_on, fraction, track, window, delay_kind, delay, policy_kind,
            compute_kind,
        );
        let text = scenario.to_toml();
        let reparsed = Scenario::from_toml(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(&scenario, &reparsed, "{}", text);
        // Serialization is a pure function of the value: a second lap
        // produces byte-identical text.
        prop_assert_eq!(reparsed.to_toml(), text);
    }
}

/// Override bases: every execution mode, delay model, dataset family and
/// optional section the presets cover.
const OVERRIDE_BASES: [&str; 6] = [
    "smoke",
    "async-cohorts",
    "poisoning-p0.2",
    "table1-poets",
    "chaos-smoke",
    "analysis-smoke",
];

/// Sections, real and not.
const SECTIONS: [&str; 9] = [
    "dataset",
    "model",
    "execution",
    "attack",
    "faults",
    "analysis",
    "output",
    "sweep",
    "",
];

/// Keys: real ones from every section, plus near misses.
const KEYS: [&str; 18] = [
    "alpha",
    "rounds",
    "selector",
    "normalization",
    "delay_model",
    "jitter",
    "kind",
    "mode",
    "seed",
    "clients",
    "fraction",
    "hidden",
    "workers",
    "tracker",
    "name",
    "",
    ".",
    "a.b",
];

/// Value fragments: every shape of the value grammar and its failures.
const VALUE_PARTS: [&str; 24] = [
    "0",
    "1",
    "-1",
    "0.1",
    "1e9",
    "nan",
    "inf",
    "random",
    "cumulative",
    "async",
    "rounds",
    "tcp",
    "\"x\"",
    "[1, 2]",
    "[]",
    "0..3",
    "true",
    "\"",
    "[",
    "..",
    " ",
    "é",
    ".",
    "=",
];

proptest! {
    #[test]
    fn overrides_never_panic_and_accepted_results_round_trip(
        (base, section, key, dotted) in (
            0usize..OVERRIDE_BASES.len(),
            0usize..SECTIONS.len(),
            0usize..KEYS.len(),
            any::<bool>(),
        ),
        value_picks in proptest::collection::vec(0usize..VALUE_PARTS.len(), 0..3),
    ) {
        let scenario = Scenario::preset_at(OVERRIDE_BASES[base], Scale::Quick).unwrap();
        let path = if dotted {
            format!("{}.{}", SECTIONS[section], KEYS[key])
        } else {
            KEYS[key].to_string()
        };
        let value: String = value_picks.iter().map(|&i| VALUE_PARTS[i]).collect();
        if let Ok(changed) = scenario.with_override(&path, &value) {
            prop_assert!(changed.validate().is_ok(), "{} = {}", path, value);
            let reparsed = Scenario::from_toml(&changed.to_toml()).unwrap();
            prop_assert_eq!(reparsed, changed, "{} = {}", path, value);
        }
    }
}
