//! Seeded request schedules: everything the load generator sends is a pure
//! function of the seed, so two runs with one seed offer identical traffic.

use std::time::Duration;
use tincy_serve::SloClass;

/// SplitMix64: small, seedable, and good enough to draw arrivals from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        u
    }

    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let i = (self.next_u64() % n as u64) as usize;
        i
    }
}

/// One scheduled request of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the timed window.
    pub due: Duration,
    /// The client that sends it.
    pub client: usize,
    /// Index into the pre-rendered image pool.
    pub image: usize,
}

/// The SLO class a client submits under: classes are dealt round-robin,
/// so 12 clients are 4 per class.
pub fn class_of(client: usize) -> SloClass {
    SloClass::ALL[client % SloClass::ALL.len()]
}

/// A Poisson arrival process at `rate_per_s` over `window`, conditioned on
/// its expected count: exactly `rate x window` arrivals at independent
/// uniform times (which is what a Poisson process is, given its count), so
/// every seed offers the same load and only the burstiness differs. Each
/// arrival is dealt to a uniformly drawn client and pool image. Arrivals
/// are in due order.
pub fn poisson(
    seed: u64,
    rate_per_s: f64,
    window: Duration,
    clients: usize,
    pool: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x706f_6973_736f_6e00);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = (rate_per_s * window.as_secs_f64()).round() as usize;
    let mut arrivals: Vec<Arrival> = (0..count)
        .map(|_| Arrival {
            due: window.mul_f64(1.0 - rng.unit()),
            client: rng.below(clients),
            image: rng.below(pool),
        })
        .collect();
    arrivals.sort_by_key(|a| a.due);
    arrivals
}

/// The image sequence of one closed-loop client: an endless seeded walk
/// over the pool.
pub fn closed_walk(seed: u64, client: usize, pool: usize) -> impl FnMut() -> usize {
    let mut rng = Rng::new(seed ^ 0x636c_6f73_6564_0000 ^ ((client as u64) << 32));
    move || rng.below(pool)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules_and_different_seeds_do_not() {
        let window = Duration::from_secs(5);
        let a = poisson(7, 60.0, window, 12, 96);
        let b = poisson(7, 60.0, window, 12, 96);
        let c = poisson(8, 60.0, window, 12, 96);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.client < 12 && x.image < 96));
        assert_eq!(a.len(), 300);
        assert!(a.iter().all(|x| x.due < window));
    }

    #[test]
    fn classes_are_dealt_four_per_class_over_twelve_clients() {
        let mut per_class = [0usize; 3];
        for client in 0..12 {
            per_class[class_of(client).index()] += 1;
        }
        assert_eq!(per_class, [4, 4, 4]);
        // Assignment does not depend on the seed at all.
        assert_eq!(class_of(0), SloClass::Interactive);
        assert_eq!(class_of(2), SloClass::Batch);
    }

    #[test]
    fn closed_walks_repeat_per_seed_and_differ_per_client() {
        let take = |seed, client| {
            let mut next = closed_walk(seed, client, 96);
            (0..32).map(|_| next()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(3, 1));
        assert_ne!(take(3, 0), take(4, 0));
    }
}
