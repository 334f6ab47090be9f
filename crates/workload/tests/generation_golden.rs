//! Golden pin of the Section-V bucket generator's output.
//!
//! The pinned values fingerprint every generated set (every task's
//! period, deadline, WCET and (m,k)) and each bucket's attempt count, so
//! any change to the draws or to an R-pattern verdict shows up here as a
//! mismatch. Speed-ups of the generator or of the schedulability test
//! must leave them unchanged. Besides the paper's workload, the pins
//! cover the `Scaled` WCET model (bucket fills and raw draw streams,
//! refused draws included) and a `schedulable_set` stream with its
//! per-target attempt counts.

use mkss_core::task::TaskSet;
use mkss_workload::{
    generate_buckets_jobs, Bucket, BucketPlan, Generator, WcetModel, WorkloadConfig,
};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Appends one set's task count, then every task.
fn push_set(out: &mut Vec<u64>, ts: &TaskSet) {
    out.push(ts.len() as u64);
    for (_, task) in ts.iter() {
        out.extend([
            task.period().ticks(),
            task.deadline().ticks(),
            task.wcet().ticks(),
            u64::from(task.mk().m()),
            u64::from(task.mk().k()),
        ]);
    }
}

/// Canonical word stream of one bucket: its attempt count, its set count,
/// then every task of every set.
fn words(bucket: &Bucket) -> Vec<u64> {
    let mut out = vec![bucket.generated, bucket.sets.len() as u64];
    for ts in &bucket.sets {
        push_set(&mut out, ts);
    }
    out
}

/// The Fig. 6 plan (eight 0.1-wide buckets over [0.1, 0.9), 5000-draw
/// cap) with four sets per bucket.
fn fig6_plan() -> BucketPlan {
    BucketPlan {
        sets_per_bucket: 4,
        ..BucketPlan::default()
    }
}

fn check(seed: u64, generated: [u64; 8], digest: u64) {
    let buckets = generate_buckets_jobs(WorkloadConfig::paper(), fig6_plan(), seed, 1);
    let counts: Vec<u64> = buckets.iter().map(|b| b.generated).collect();
    let got = fnv1a(buckets.iter().flat_map(words));
    println!("seed {seed:#x}: generated {counts:?}, digest {got:#018x}");
    assert_eq!(
        counts, generated,
        "seed {seed:#x}: per-bucket attempt counts"
    );
    assert_eq!(got, digest, "seed {seed:#x}: generated sets");
}

#[test]
fn fig6_plan_generation_is_pinned_for_the_paper_seed() {
    check(
        0x6d6b_7373,
        [4, 4, 4, 7, 18, 93, 730, 5000],
        0x3852_13f2_ad29_b42c,
    );
}

#[test]
fn fig6_plan_generation_is_pinned_for_a_second_seed() {
    check(7, [4, 4, 4, 4, 6, 21, 1221, 5000], 0xe84f_eb96_48af_8bb8);
}

/// Seed `0xbe9c`: 6042 attempts in all, the top bucket at its cap.
#[test]
fn fig6_plan_generation_is_pinned_for_the_throughput_seed() {
    check(
        0xbe9c,
        [4, 4, 4, 5, 24, 124, 877, 5000],
        0xa6a4_4dc2_89c3_31ab,
    );
}

/// Canonical word stream of one draw: a `None` marker, or the set.
fn draw_words(draw: Option<&TaskSet>) -> Vec<u64> {
    let mut out = Vec::new();
    match draw {
        Some(ts) => push_set(&mut out, ts),
        None => out.push(u64::MAX),
    }
    out
}

/// Draws `per_bucket` raw sets in each 0.1-wide bucket of
/// `[from, from + 0.1·buckets)` from one stream, and returns the number
/// of draws `raw_set` refused (`None`) and the digest of every draw.
fn raw_stream(
    config: WorkloadConfig,
    seed: u64,
    from: f64,
    buckets: u32,
    per_bucket: u32,
) -> (u64, u64) {
    let mut generator = Generator::new(config, seed);
    let mut refused = 0;
    let mut all = Vec::new();
    for b in 0..buckets {
        let lo = from + 0.1 * f64::from(b);
        for _ in 0..per_bucket {
            let draw = generator.raw_set_in(lo, lo + 0.1);
            refused += u64::from(draw.is_none());
            all.extend(draw_words(draw.as_ref()));
        }
    }
    (refused, fnv1a(all))
}

/// Buckets of `config` over the plan `[from, to)`, four sets per bucket,
/// 5000-draw cap: per-bucket attempt counts and the digest.
fn bucket_fill(config: WorkloadConfig, from: f64, to: f64, seed: u64) -> (Vec<u64>, u64) {
    let plan = BucketPlan {
        from,
        to,
        ..fig6_plan()
    };
    let buckets = generate_buckets_jobs(config, plan, seed, 1);
    let counts = buckets.iter().map(|b| b.generated).collect();
    (counts, fnv1a(buckets.iter().flat_map(words)))
}

/// `WcetModel::Scaled`: WCETs proportional to the raw weights.
fn scaled() -> WorkloadConfig {
    WorkloadConfig {
        wcet_model: WcetModel::Scaled,
        ..WorkloadConfig::paper()
    }
}

#[test]
fn scaled_wcet_model_is_pinned() {
    let (counts, digest) = bucket_fill(scaled(), 0.1, 0.9, 0x6d6b_7373);
    println!("scaled buckets: {counts:?}, {digest:#018x}");
    let (refused, raw) = raw_stream(scaled(), 21, 0.1, 9, 300);
    println!("scaled raw: refused {refused}, {raw:#018x}");
    assert_eq!(counts, [4, 4, 5, 15, 47, 146, 3068, 5000]);
    assert_eq!(digest, 0x55e7_095b_1362_c7af);
    assert_eq!((refused, raw), (554, 0x41b6_d933_ff1b_870c));
}

/// Attempts `schedulable_set` spends per target, counted by replaying the
/// stream one draw per call (`max_attempts: 1`) up to the real cap.
fn attempts_per_target(seed: u64, targets: &[f64]) -> Vec<u32> {
    let cap = WorkloadConfig::paper().max_attempts;
    let one_draw = WorkloadConfig {
        max_attempts: 1,
        ..WorkloadConfig::paper()
    };
    let mut generator = Generator::new(one_draw, seed);
    targets
        .iter()
        .map(|&u| {
            (1..=cap)
                .find(|_| generator.schedulable_set(u).is_some())
                .unwrap_or(cap)
        })
        .collect()
}

#[test]
fn schedulable_set_stream_is_pinned() {
    const TARGETS: [f64; 8] = [0.15, 0.35, 0.55, 0.65, 0.75, 0.82, 0.45, 0.88];
    let seed = 0x6d6b_7373;
    let mut generator = Generator::new(WorkloadConfig::paper(), seed);
    let sets: Vec<Option<TaskSet>> = TARGETS
        .iter()
        .map(|&u| generator.schedulable_set(u))
        .collect();
    let digest = fnv1a(sets.iter().flat_map(|s| draw_words(s.as_ref())));
    let attempts = attempts_per_target(seed, &TARGETS);
    println!("schedulable_set: attempts {attempts:?}, {digest:#018x}");
    assert_eq!(attempts, [1, 1, 3, 82, 940, 5000, 3, 5000]);
    assert_eq!(digest, 0xd9c9_4669_0ecd_cd9e);
}
