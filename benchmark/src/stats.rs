//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) by nearest rank; 0.0 for an empty sample.
/// Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median, averaging the two middle values of an even-sized sample.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Arithmetic mean; 0.0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
