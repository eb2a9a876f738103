//! The seeded pod mix every workload submits: 80 % small stress pods, 20 %
//! "fat" pods carrying kilobytes of annotations (managed fields,
//! last-applied configs), so codec, clone and WAL costs are not
//! understated by bare objects.

use crate::rng::SplitMix64;
use vc_api::pod::{Container, Pod};
use vc_api::quantity::resource_list;

/// Annotations on a fat pod, and the padded width of each value.
const FAT_ANNOTATIONS: usize = 8;
const FAT_VALUE_WIDTH: usize = 224;
/// One pod in `BLOCK` is fat.
const BLOCK: u64 = 5;

/// The paper's stress pod: one small container, image pull excluded by
/// the mock kubelet. The same three lines as `vc_bench::load::stress_pod`;
/// depending on `vc-bench` for them would put the old harness and two
/// further crates into this build.
pub fn stress_pod(namespace: &str, name: &str) -> Pod {
    Pod::new(namespace, name).with_container(
        Container::new("app", "stress:1").with_requests(resource_list(&[("cpu", "50m")])),
    )
}

/// A stress pod with `FAT_ANNOTATIONS` × `FAT_VALUE_WIDTH`-byte annotations.
pub fn fat_pod(namespace: &str, name: &str) -> Pod {
    let mut pod = stress_pod(namespace, name);
    for i in 0..FAT_ANNOTATIONS {
        pod.meta.annotations.insert(
            format!("bench.virtualcluster.io/field-{i}"),
            format!("{i:0>width$}", width = FAT_VALUE_WIDTH),
        );
    }
    pod
}

/// A seeded stream of pod shapes. The seed decides *which* pod of every
/// block of five is the fat one, never *how many* are: every seed submits
/// the same bytes overall, so per-op counts compare across seeds.
#[derive(Debug, Clone)]
pub struct PodMix {
    rng: SplitMix64,
    position: u64,
    fat_at: u64,
}

impl PodMix {
    /// A stream for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> PodMix {
        PodMix { rng: SplitMix64::new(seed, stream), position: 0, fat_at: 0 }
    }

    /// The next pod of the mix.
    pub fn next_pod(&mut self, namespace: &str, name: &str) -> Pod {
        if self.position == 0 {
            self.fat_at = self.rng.below(BLOCK);
        }
        let fat = self.position == self.fat_at;
        self.position = (self.position + 1) % BLOCK;
        if fat {
            fat_pod(namespace, name)
        } else {
            stress_pod(namespace, name)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_five_has_one_fat_pod() {
        for seed in 0..20 {
            let mut mix = PodMix::new(seed, 3);
            for _ in 0..10 {
                let fat = (0..BLOCK)
                    .filter(|_| !mix.next_pod("ns", "p").meta.annotations.is_empty())
                    .count();
                assert_eq!(fat, 1, "seed {seed}");
            }
        }
    }
}
