//! Offline stand-in for the `rand_distr` 0.4 surface this workspace uses
//! (`Normal`, `LogNormal`); see `../rand` for why it exists.

pub use rand::distributions::Distribution;
use rand::RngCore;

/// Invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("standard deviation must be finite and non-negative")
    }
}

impl std::error::Error for Error {}

/// Normal distribution `N(mean, std_dev²)`, sampled by Box–Muller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// `Err` when `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal, Error> {
        if std_dev.is_finite() && std_dev >= 0.0 {
            Ok(Normal { mean, std_dev })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let unit = |w: u64| ((w >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
        let (u1, u2) = (unit(rng.next_u64()), unit(rng.next_u64()));
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// `Err` when `sigma` is negative or not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, Error> {
        Ok(LogNormal {
            normal: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}
