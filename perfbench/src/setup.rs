//! `setup_s` sampling. One set-up takes milliseconds or less, and the
//! host's speed drifts over seconds, so a burst of set-ups at the start of
//! a run sees only that moment's host. The samples are instead taken at
//! even intervals through the measured window, paused meanwhile, the way
//! its operations see the host. Each sample is the mean of a block of
//! set-ups; `setup_s` is the median sample.

use std::time::{Duration, Instant};

/// Samples per run.
pub const SAMPLES: usize = 15;

pub struct Sampler<'a> {
    block: usize,
    every: Duration,
    next: Instant,
    samples: Vec<f64>,
    setup: Box<dyn FnMut() -> Result<Duration, String> + 'a>,
}

impl<'a> Sampler<'a> {
    /// Samples `setup`, run `block` times per sample, [`SAMPLES`] times
    /// over a window of `seconds`, the first when the window starts.
    /// `setup` returns the part of its time a user pays (a teardown it
    /// also does is left out).
    pub fn new(
        seconds: f64,
        block: usize,
        setup: impl FnMut() -> Result<Duration, String> + 'a,
    ) -> Self {
        Self {
            block,
            every: Duration::from_secs_f64(seconds / SAMPLES as f64),
            next: Instant::now(),
            samples: Vec::new(),
            setup: Box::new(setup),
        }
    }

    /// Takes a sample if one is due. Returns the time it took, which the
    /// window leaves out of its own.
    pub fn tick(&mut self) -> Result<Duration, String> {
        let now = Instant::now();
        if now < self.next || self.samples.len() == SAMPLES {
            return Ok(Duration::ZERO);
        }
        let mut paid = Duration::ZERO;
        for _ in 0..self.block {
            paid += (self.setup)()?;
        }
        let took = now.elapsed();
        self.samples.push(paid.as_secs_f64() / self.block as f64);
        self.next = Instant::now() + self.every;
        Ok(took)
    }

    /// The samples taken (at least one once the window has ticked).
    pub fn samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Ticks an optional sampler.
pub fn tick(sampler: &mut Option<Sampler<'_>>) -> Result<Duration, String> {
    sampler.as_mut().map_or(Ok(Duration::ZERO), Sampler::tick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_spread_and_capped() {
        let mut calls = 0;
        let mut s = Sampler::new(0.15, 3, || {
            calls += 1;
            Ok(Duration::from_micros(10))
        });
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        while start.elapsed() < Duration::from_millis(400) {
            paused += s.tick().expect("no set-up fails");
        }
        assert!(paused < Duration::from_millis(100));
        let samples = s.samples();
        assert_eq!(samples.len(), SAMPLES);
        assert!(samples.iter().all(|x| (x - 1e-5).abs() < 1e-12));
        assert_eq!(calls, 3 * SAMPLES);
    }
}
