//! The answer oracle: sampled answers are checked, after the window, against
//! Dijkstra on the graph version that served them.
//!
//! A sample carries the publisher version of the snapshot that answered it.
//! Every submitted edge update reports the version at which it became
//! visible, so the graph behind any version is the fixed dataset plus every
//! update visible at or before that version, rebuilt here from the
//! benchmark's own log, never from the server's graph.

use crate::api::{self, Graph, Update};

/// One sampled answer: `d` was returned for `(s, t)` by a snapshot published
/// at `version`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub version: u64,
    pub s: u32,
    pub t: u32,
    pub d: u32,
}

/// One edge update and the publisher version it became visible at.
#[derive(Clone, Copy, Debug)]
pub struct LoggedUpdate {
    pub visible_at: u64,
    pub update: Update,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub checked: u64,
    pub wrong: u64,
}

/// Checks every sample; `initial` is the graph at version 0.
pub fn verify(initial: &Graph, log: &[LoggedUpdate], samples: &[Sample]) -> Verdict {
    let mut log: Vec<LoggedUpdate> = log.to_vec();
    log.sort_by_key(|u| u.visible_at);
    let mut samples: Vec<Sample> = samples.to_vec();
    samples.sort_by_key(|s| s.version);

    let mut graph = initial.clone();
    let mut applied = 0;
    let mut verdict = Verdict::default();
    for sample in samples {
        let upto = log.partition_point(|u| u.visible_at <= sample.version);
        if upto > applied {
            let updates: Vec<Update> = log[applied..upto].iter().map(|u| u.update).collect();
            api::graph_apply_batch(&mut graph, &api::prepare_batch(&updates));
            applied = upto;
        }
        verdict.checked += 1;
        if api::dijkstra(&graph, sample.s, sample.t) != sample.d {
            verdict.wrong += 1;
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    /// Two versions of a small graph and true answers on each.
    fn scenario() -> (Graph, Vec<LoggedUpdate>, Vec<Sample>) {
        let g0 = inputs::dataset(&inputs::GRID32);
        let generated = inputs::generate(
            &g0,
            &inputs::Plan {
                seed: 4,
                round: 0,
                batches: 1,
                request_seconds: 0.0,
            },
        );
        let mut g1 = g0.clone();
        api::graph_apply_batch(&mut g1, &api::prepare_batch(&generated.batches[0]));
        let log = generated.batches[0]
            .iter()
            .map(|&update| LoggedUpdate {
                visible_at: 1,
                update,
            })
            .collect();
        let mut samples = Vec::new();
        let mut differ = 0;
        for &(s, t) in generated.pairs.iter().take(200) {
            let (d0, d1) = (api::dijkstra(&g0, s, t), api::dijkstra(&g1, s, t));
            differ += u32::from(d0 != d1);
            samples.push(Sample {
                version: 0,
                s,
                t,
                d: d0,
            });
            // Versions 1..=4 are the staged publications of the one batch.
            samples.push(Sample {
                version: 3,
                s,
                t,
                d: d1,
            });
        }
        assert!(
            differ > 20,
            "the batch must change answers for the test to mean anything"
        );
        (g0, log, samples)
    }

    #[test]
    fn true_answers_pass_on_the_version_that_served_them() {
        let (g0, log, samples) = scenario();
        let verdict = verify(&g0, &log, &samples);
        assert_eq!(
            verdict,
            Verdict {
                checked: 400,
                wrong: 0
            }
        );
    }

    #[test]
    fn one_flipped_answer_is_caught() {
        let (g0, log, mut samples) = scenario();
        samples[17].d ^= 1;
        assert_eq!(verify(&g0, &log, &samples).wrong, 1);
    }

    #[test]
    fn an_answer_from_the_wrong_version_is_caught() {
        let (g0, log, samples) = scenario();
        // Serve every version-3 answer as if the batch were not visible yet.
        let stale: Vec<Sample> = samples
            .iter()
            .map(|s| Sample { version: 0, ..*s })
            .collect();
        assert!(verify(&g0, &log, &stale).wrong > 20);
    }
}
