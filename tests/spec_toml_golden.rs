//! Byte-level goldens for the canonical scenario and sweep TOML.
//!
//! `ScenarioSpec::content_hash` is the FNV-1a hash of `to_toml()`, and
//! the result store keys every record by it: if the rendering drifts
//! by one byte, a resumed sweep silently misses its cache. These tests
//! pin the text and the hash of one spec per process kind (every
//! non-default key the kind accepts, integral and non-integral floats)
//! and the sweep files of a twin and a broadcast sweep.

use sparsegossip::analysis::ScenarioSweep;
use sparsegossip::core::{
    ExchangeRule, FaultConfig, Metric, Mobility, NetworkConfig, ProcessKind, ScenarioSpec,
    WorldConfig,
};

fn specs() -> Vec<ScenarioSpec> {
    let broadcast = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
        .radius(2)
        .mobility(Mobility::InformedOnly)
        .max_steps(5000)
        .metric(Metric::Fraction)
        .world(WorldConfig {
            barrier_density: 0.25,
            churn_rate: 1.0,
            hetero_fraction: 0.5,
            hetero_factor: 2.0,
            speed_fraction: 0.3,
            speed_factor: 3,
            num_sources: 2,
            adversarial_sources: true,
        });
    let gossip = ScenarioSpec::builder(ProcessKind::Gossip, 24, 8)
        .radius(1)
        .max_steps(777)
        .metric(Metric::Fraction);
    let infection = ScenarioSpec::builder(ProcessKind::Infection, 20, 6)
        .mobility(Mobility::InformedOnly)
        .max_steps(123_456)
        .metric(Metric::Fraction)
        .world(WorldConfig {
            num_sources: 3,
            adversarial_sources: true,
            ..WorldConfig::DEFAULT
        });
    let coverage = ScenarioSpec::builder(ProcessKind::Coverage, 16, 8)
        .radius(3)
        .source(5)
        .mobility(Mobility::InformedOnly)
        .exchange_rule(ExchangeRule::OneHop)
        .max_steps(900)
        .metric(Metric::Fraction);
    let twin = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
        .radius(1)
        .source(2)
        .max_steps(4000)
        .metric(Metric::Fraction)
        .network(NetworkConfig::new(1.0, 2, 3, 4).unwrap())
        .faults(FaultConfig {
            crash_prob: 0.05,
            restart_delay: 3,
            partition_start: 10,
            partition_len: 5,
            retransmit: true,
            anti_entropy_interval: 4,
        });
    [broadcast, gossip, infection, coverage, twin]
        .into_iter()
        .map(|b| b.build().unwrap())
        .collect()
}

const SPEC_GOLDENS: [(&str, u64); 5] = [
    (
        "[scenario]\nprocess = \"broadcast\"\nside = 32\nk = 16\nradius = 2\nsource = 0\n\
         mobility = \"informed-only\"\nexchange = \"component\"\nmax_steps = 5000\n\
         barrier_density = 0.25\nchurn_rate = 1.0\nhetero_fraction = 0.5\nhetero_factor = 2.0\n\
         speed_fraction = 0.3\nspeed_factor = 3\nnum_sources = 2\nadversarial_sources = true\n\
         metric = \"fraction\"\n",
        0x99d9_8422_e39d_eed6,
    ),
    (
        "[scenario]\nprocess = \"gossip\"\nside = 24\nk = 8\nradius = 1\nsource = 0\n\
         mobility = \"all\"\nexchange = \"component\"\nmax_steps = 777\nmetric = \"fraction\"\n",
        0xde6a_f0e5_42fb_6d95,
    ),
    (
        "[scenario]\nprocess = \"infection\"\nside = 20\nk = 6\nradius = 0\nsource = 0\n\
         mobility = \"informed-only\"\nexchange = \"component\"\nmax_steps = 123456\n\
         num_sources = 3\nadversarial_sources = true\nmetric = \"fraction\"\n",
        0xb270_c723_e5ab_7955,
    ),
    (
        "[scenario]\nprocess = \"coverage\"\nside = 16\nk = 8\nradius = 3\nsource = 5\n\
         mobility = \"informed-only\"\nexchange = \"one-hop\"\nmax_steps = 900\n\
         metric = \"fraction\"\n",
        0xd1d0_de8f_0960_6789,
    ),
    (
        "[scenario]\nprocess = \"protocol-broadcast\"\nside = 16\nk = 6\nradius = 1\nsource = 2\n\
         mobility = \"all\"\nexchange = \"component\"\nmax_steps = 4000\ndrop_prob = 1.0\n\
         delay_max = 2\nsend_cap = 3\ngossip_interval = 4\ncrash_prob = 0.05\n\
         restart_delay = 3\npartition_start = 10\npartition_len = 5\nretransmit = true\n\
         anti_entropy_interval = 4\nmetric = \"fraction\"\n",
        0x2483_aba1_45b3_0e73,
    ),
];

#[test]
fn spec_toml_and_content_hash_are_pinned_per_kind() {
    let specs = specs();
    for (spec, (text, hash)) in specs.iter().zip(SPEC_GOLDENS) {
        assert_eq!(spec.to_toml(), text, "{} rendering drifted", spec.kind());
        assert_eq!(spec.content_hash(), hash, "{} hash drifted", spec.kind());
        assert_eq!(&ScenarioSpec::from_toml_str(text).unwrap(), spec);
    }
    let kinds: Vec<ProcessKind> = specs.iter().map(ScenarioSpec::kind).collect();
    assert_eq!(kinds, ProcessKind::ALL, "one golden per process kind");
}

/// The default spec of a kind renders only the core keys.
#[test]
fn default_spec_toml_is_pinned() {
    let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .unwrap();
    let text = "[scenario]\nprocess = \"broadcast\"\nside = 64\nk = 32\nradius = 0\nsource = 0\n\
                mobility = \"all\"\nexchange = \"component\"\nmetric = \"time\"\n";
    assert_eq!(spec.to_toml(), text);
    assert_eq!(spec.content_hash(), 0xfd8b_041b_9312_8792);
}

const TWIN_SWEEP: &str = "\
[scenario]
process = \"protocol-broadcast\"
side = 12
k = 6
radius = 1
retransmit = true
anti_entropy_interval = 2

[sweep]
crash_probs = [0, 0.1]
drop_probs = [0.0, 0.25, 1]
radii = [0, 2]
replicates = 3
seed = 42
";

const TWIN_SWEEP_GOLDEN: &str = "[scenario]\nprocess = \"protocol-broadcast\"\nside = 12\nk = 6\n\
radius = 1\nsource = 0\nmobility = \"all\"\nexchange = \"component\"\nretransmit = true\n\
anti_entropy_interval = 2\nmetric = \"time\"\n\n[sweep]\nsides = [12]\nks = [6]\n\
radii = [0, 2]\ndrop_probs = [0.0, 0.25, 1.0]\ncrash_probs = [0.0, 0.1]\nreplicates = 3\n\
seed = 42\nthreads = 1\n";

const TWIN_INT_SWEEP: &str = "\
[scenario]
process = \"protocol-broadcast\"
side = 12
k = 6
partition_start = 3

[sweep]
gossip_intervals = [1, 4]
partition_lens = [0, 8]
r_factors = [0.5, 2]
";

const TWIN_INT_SWEEP_GOLDEN: &str = "[scenario]\nprocess = \"protocol-broadcast\"\nside = 12\n\
k = 6\nradius = 0\nsource = 0\nmobility = \"all\"\nexchange = \"component\"\n\
partition_start = 3\nmetric = \"time\"\n\n[sweep]\nsides = [12]\nks = [6]\n\
r_factors = [0.5, 2.0]\ngossip_intervals = [1, 4]\npartition_lens = [0, 8]\nreplicates = 8\n\
seed = 2011\nthreads = 1\n";

const BROADCAST_SWEEP: &str = "\
[scenario]
process = \"broadcast\"
side = 16
k = 8
hetero_factor = 2.0

[sweep]
sides = [16, 20]
ks = [8]
r_factors = [0.25, 1, 2.5]
radius_mixes = [0, 0.5, 1]
adaptive = true
cell_budget = 20
replicate_budget = 4
tolerance = 0.05
threads = 2
";

const BROADCAST_SWEEP_GOLDEN: &str = "[scenario]\nprocess = \"broadcast\"\nside = 16\nk = 8\n\
radius = 0\nsource = 0\nmobility = \"all\"\nexchange = \"component\"\nhetero_factor = 2.0\n\
metric = \"time\"\n\n[sweep]\nsides = [16, 20]\nks = [8]\nr_factors = [0.25, 1.0, 2.5]\n\
radius_mixes = [0.0, 0.5, 1.0]\nreplicates = 8\nseed = 2011\nthreads = 2\nadaptive = true\n\
cell_budget = 20\nreplicate_budget = 4\ntolerance = 0.05\n";

#[test]
fn sweep_toml_is_pinned() {
    for (input, golden) in [
        (TWIN_SWEEP, TWIN_SWEEP_GOLDEN),
        (TWIN_INT_SWEEP, TWIN_INT_SWEEP_GOLDEN),
        (BROADCAST_SWEEP, BROADCAST_SWEEP_GOLDEN),
    ] {
        let sweep = ScenarioSweep::from_toml_str(input).unwrap();
        assert_eq!(sweep.to_toml(), golden);
        assert_eq!(ScenarioSweep::from_toml_str(golden).unwrap(), sweep);
    }
}

/// The per-cell content hashes are the store keys of a sweep: pinning
/// them pins every re-derived cell spec, axis values included. The
/// hashes are folded FNV-style into one value per sweep.
#[test]
fn sweep_cell_hashes_are_pinned() {
    for (input, cells, golden) in [
        (TWIN_SWEEP, 12, 0xe453_f943_6444_df67),
        (TWIN_INT_SWEEP, 8, 0x8a74_c836_7fc2_2881),
        (BROADCAST_SWEEP, 18, 0xd0f4_5a52_c6c5_e2a8),
    ] {
        let hashes: Vec<u64> = ScenarioSweep::from_toml_str(input)
            .unwrap()
            .cells()
            .unwrap()
            .iter()
            .map(|c| c.spec.content_hash())
            .collect();
        let folded = hashes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, h| {
            (acc ^ h).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(hashes.len(), cells);
        assert_eq!(folded, golden);
    }
}
