//! The correctness oracle: exact per-epoch, per-query group counts,
//! computed straight from the generated records with no LFTA, channel
//! or HFTA in the way.

use msa_gigascope::hfta::EpochResult;
use msa_stream::hash::FastMap;
use msa_stream::{AttrSet, GroupKey, Record};

pub struct Oracle {
    queries: Vec<AttrSet>,
    /// `epochs[e][q]`: group → count of query `q` in epoch `e`.
    epochs: Vec<Vec<FastMap<GroupKey, u64>>>,
    records: u64,
}

impl Oracle {
    pub fn compute(records: &[Record], queries: &[AttrSet], epoch_micros: u64) -> Oracle {
        let mut epochs: Vec<Vec<FastMap<GroupKey, u64>>> = Vec::new();
        for r in records {
            let e = (r.ts_micros / epoch_micros) as usize;
            while epochs.len() <= e {
                epochs.push(queries.iter().map(|_| FastMap::default()).collect());
            }
            for (map, &q) in epochs[e].iter_mut().zip(queries) {
                *map.entry(r.project(q)).or_insert(0) += 1;
            }
        }
        Oracle { queries: queries.to_vec(), epochs, records: records.len() as u64 }
    }

    /// Records whose contribution is missing from, or wrong in,
    /// `results`: per query, the sum of `|observed − expected|` over
    /// every (epoch, group); the worst query counts, capped at the
    /// record count.
    pub fn mismatches(&self, results: &[EpochResult]) -> u64 {
        let nq = self.queries.len();
        let mut per_query = vec![0u64; nq];
        let mut seen = vec![false; self.epochs.len() * nq];
        let mut stray = 0u64;
        for res in results {
            let observed_total: u64 = res.aggregates.values().map(|a| a.count).sum();
            let Some(qi) = self.queries.iter().position(|&q| q == res.query) else {
                stray += observed_total;
                continue;
            };
            let cell = res.epoch as usize * nq + qi;
            let expected = match seen.get_mut(cell) {
                Some(s) if !*s => {
                    *s = true;
                    self.epochs.get(res.epoch as usize).and_then(|v| v.get(qi))
                }
                // A second result for one (epoch, query), or an epoch
                // the input never reached: all of it is wrong.
                _ => {
                    per_query[qi] += observed_total;
                    continue;
                }
            };
            for (k, agg) in &res.aggregates {
                let exp = expected.and_then(|m| m.get(k)).copied().unwrap_or(0);
                per_query[qi] += agg.count.abs_diff(exp);
            }
            if let Some(m) = expected {
                for (k, &c) in m {
                    if !res.aggregates.contains_key(k) {
                        per_query[qi] += c;
                    }
                }
            }
        }
        for (e, maps) in self.epochs.iter().enumerate() {
            for (qi, m) in maps.iter().enumerate() {
                if !seen[e * nq + qi] {
                    per_query[qi] += m.values().sum::<u64>();
                }
            }
        }
        let worst = per_query.into_iter().max().unwrap_or(0) + stray;
        worst.min(self.records)
    }

    pub fn epochs(&self) -> usize {
        self.epochs.len()
    }
}
