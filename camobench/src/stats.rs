//! Exact sample statistics, the result digest and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample `v` such that at least `ceil(q * n)` samples are `<= v` (the
/// minimum for `q = 0`). Always one of the observed samples, so it can
/// never exceed the maximum the way a histogram bucket bound can.
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.max(1) - 1])
}

/// The nearest-rank median ([`quantile`] at 0.5).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// [`quantile`] `q` over each slot's fastest repeat: `samples` holds
/// rounds of `slots` samples each (one per clip, say), every round repeats
/// the same deterministic work, every slot's samples are reduced to their
/// minimum, and the quantile is taken over those minimums. A slot with a
/// failed repeat (`+inf`) stays `+inf`: a failure is never hidden behind a
/// faster repeat.
///
/// On a shared host other tenants slow the same computation by up to half
/// for seconds at a time, so a median over a 30 s run moves with the share
/// of the run they were busy, while the fastest repeat only moves when they
/// were busy for all of it (see camobench/README.md, "Estimators"). `None`
/// when `samples` holds no whole round.
pub fn slot_quantile(samples: &[f64], slots: usize, q: f64) -> Option<f64> {
    if slots == 0 || samples.len() < slots {
        return None;
    }
    let best: Vec<f64> = (0..slots)
        .map(|slot| {
            let column = samples.iter().skip(slot).step_by(slots);
            if column.clone().any(|v| v.is_infinite()) {
                f64::INFINITY
            } else {
                column.copied().fold(f64::INFINITY, f64::min)
            }
        })
        .collect();
    quantile(&best, q)
}

/// 64-bit FNV-1a over a stream of words: the per-workload result digest,
/// fed the bits of every EPE value, PV-band area and segment offset, so a
/// parent and a change can be compared from one printed line.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one 64-bit word, byte by byte.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes every value's bit pattern.
    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// Mixes every offset.
    pub fn offsets(&mut self, values: &[i64]) {
        for &v in values {
            self.word(v as u64);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB, from
/// `/proc/<pid>/status`. `None` where procfs is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run: the gates, the operation counts and
/// the metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate passed and the run was valid.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The single-line JSON result. A non-finite value cannot be written
    /// as JSON, so it is written as 0 and the run is marked incorrect.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent oracle: scan the sorted samples for the first value
    /// with at least `ceil(q * n)` samples at or below it.
    fn oracle(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let need = ((q * samples.len() as f64).ceil() as usize).max(1);
        *sorted
            .iter()
            .find(|&&v| samples.iter().filter(|&&x| x <= v).count() >= need)
            .expect("the maximum always qualifies")
    }

    /// Deterministic pseudo-random samples with many ties.
    fn samples(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((x >> 33) % 500) as f64 / 7.0
            })
            .collect()
    }

    #[test]
    fn slot_quantile_takes_quantiles_of_slot_minimums() {
        // Three rounds of two slots; slot 0's fastest repeat is 1.
        let rounds = [1.0, 10.0, 9.0, 20.0, 2.0, 30.0];
        assert_eq!(slot_quantile(&rounds, 2, 0.5), Some(1.0));
        assert_eq!(slot_quantile(&rounds, 2, 0.95), Some(10.0));
        // The raw nearest-rank median is slot 0's slow repeat.
        assert_eq!(quantile(&rounds, 0.5), Some(9.0));
        assert_eq!(slot_quantile(&rounds[..1], 2, 0.5), None);
        // A failed repeat makes its slot fail, however fast the others.
        let failed = [1.0, f64::INFINITY, 2.0, 3.0];
        assert_eq!(slot_quantile(&failed, 2, 0.95), Some(f64::INFINITY));
        assert_eq!(slot_quantile(&failed, 2, 0.5), Some(1.0));
    }

    #[test]
    fn quantile_matches_sorted_sample_oracle() {
        for seed in 0..40 {
            for n in [1, 2, 3, 10, 19, 100, 257] {
                let s = samples(seed, n);
                for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                    assert_eq!(quantile(&s, q), Some(oracle(&s, q)), "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn quantile_is_an_observed_sample_bounded_by_the_max() {
        let s = [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 900.0];
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.9), Some(3.0));
        assert_eq!(quantile(&s, 0.95), Some(900.0));
        assert_eq!(quantile(&s, 1.0), Some(900.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.floats(&[1.0, -0.0]);
        let mut b = Digest::default();
        b.floats(&[1.0, 0.0]);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn json_has_the_contract_keys_and_flags_non_finite_values() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("setup_s", 0.25, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.push("latency_ms", f64::NAN, "ms");
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
