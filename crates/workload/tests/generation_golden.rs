//! Golden pin of the Section-V bucket generator's output.
//!
//! The pinned values fingerprint every generated set (every task's
//! period, deadline, WCET and (m,k)) and each bucket's attempt count, so
//! any change to the draws or to an R-pattern verdict shows up here as a
//! mismatch. Speed-ups of the generator or of the schedulability test
//! must leave them unchanged.

use mkss_workload::{generate_buckets_jobs, Bucket, BucketPlan, WorkloadConfig};

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

/// Canonical word stream of one bucket: its attempt count, its set count,
/// then every task of every set.
fn words(bucket: &Bucket) -> Vec<u64> {
    let mut out = vec![bucket.generated, bucket.sets.len() as u64];
    for ts in &bucket.sets {
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
