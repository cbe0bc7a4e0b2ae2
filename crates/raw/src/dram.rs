//! Off-chip DRAM model: fixed access latency plus bandwidth occupancy.

use vta_sim::Cycle;

/// A single DRAM channel shared by all tiles (Raw's off-chip memory).
///
/// Requests pay a fixed access latency and serialize on the channel at a
/// per-word transfer occupancy, so heavy traffic (e.g. every translation
/// slave writing blocks into the L2 code cache) sees queueing delay.
///
/// # Examples
///
/// ```
/// use vta_raw::Dram;
/// use vta_sim::Cycle;
///
/// let mut dram = Dram::new(60, 1);
/// let a = dram.access(Cycle(0), 8);
/// let b = dram.access(Cycle(0), 8);
/// assert!(b > a, "second request queues behind the first");
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    latency: u64,
    word_occupancy: u64,
    next_free: Cycle,
}

impl Dram {
    /// Creates a channel with the given access latency (cycles) and
    /// per-word transfer occupancy.
    pub fn new(latency: u64, word_occupancy: u64) -> Dram {
        Dram {
            latency,
            word_occupancy,
            next_free: Cycle::ZERO,
        }
    }

    /// Issues an access of `words` 32-bit words at `now`; returns the
    /// completion cycle.
    pub fn access(&mut self, now: Cycle, words: u32) -> Cycle {
        let start = now.max(self.next_free);
        let transfer = self.word_occupancy * words as u64;
        let done = start + self.latency + transfer;
        self.next_free = start + transfer.max(1);
        done
    }

    /// Like [`Dram::access`], but also records a span covering the
    /// channel-occupancy window on `track` in `tracer`.
    pub fn access_traced(
        &mut self,
        now: Cycle,
        words: u32,
        tracer: &mut vta_sim::Tracer,
        track: vta_sim::TrackId,
        name: &'static str,
    ) -> Cycle {
        let start = now.max(self.next_free);
        let done = self.access(now, words);
        let occupancy = (self.word_occupancy * words as u64).max(1);
        tracer.span(start, occupancy, track, name);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_applied() {
        let mut d = Dram::new(60, 1);
        assert_eq!(d.access(Cycle(100), 8), Cycle(100 + 60 + 8));
    }

    #[test]
    fn channel_serializes() {
        let mut d = Dram::new(60, 1);
        let first = d.access(Cycle(0), 8);
        let second = d.access(Cycle(0), 8);
        assert_eq!(first, Cycle(68));
        assert_eq!(second, Cycle(8 + 68));
    }

    #[test]
    fn idle_channel_no_queueing() {
        let mut d = Dram::new(60, 1);
        d.access(Cycle(0), 8);
        let late = d.access(Cycle(1000), 8);
        assert_eq!(late, Cycle(1068));
    }

    /// On any request stream the channel serializes: every access pays
    /// at least the latency, completions never go backwards, and no two
    /// transfer windows overlap.
    #[test]
    fn random_requests_serialize() {
        let mut rng = vta_sim::Rng::seeded(0xD2A3);
        for _ in 0..256 {
            let mut d = Dram::new(60, 1);
            let (mut now, mut prev_done) = (Cycle::ZERO, Cycle::ZERO);
            for _ in 0..rng.range(1, 99) {
                now += rng.below(500);
                let words = rng.range(1, 31);
                let done = d.access(now, words as u32);
                assert!(done >= now + 60 + words, "latency and transfer floor");
                // The transfer occupies the `words` cycles ending one
                // latency before completion: it starts after the
                // previous transfer ended.
                assert!(
                    done.as_u64() - words >= prev_done.as_u64(),
                    "transfers overlap"
                );
                prev_done = done;
            }
        }
    }
}
