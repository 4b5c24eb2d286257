//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between order statistics.
/// Sorts `values` in place; `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency percentiles are taken per quarter-second window of issue instants, and a run
/// reports their median: a host stall of a few milliseconds then moves one window's
/// figures, not the run's.
pub const LATENCY_WINDOW_NS: f64 = 0.25e9;

/// Latency samples bucketed by the one-second window they fall in.  A run reports the
/// median over windows of each window's percentile, so one window hit by a scheduler
/// stall on a shared machine moves the figure by at most one rank.
#[derive(Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    /// Records `value` in window `window`.
    pub fn push(&mut self, window: usize, value: f64) {
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Vec::new);
        }
        self.windows[window].push(value);
    }

    /// Median over windows holding at least `min_samples` samples of their `q`-quantile.
    pub fn median_of(&mut self, q: f64, min_samples: usize) -> f64 {
        let mut per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.len() >= min_samples)
            .map(|w| quantile(w, q))
            .collect();
        median(&mut per_window)
    }

    /// Median over one-second windows of each window's event rate, where the samples
    /// are event instants in ns.  A window's rate is taken between its first and last
    /// event, so partial windows at either end of the run do not read low.
    pub fn median_rate(&mut self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.len() >= 100)
            .filter_map(|w| {
                let first = quantile(w, 0.0);
                let last = quantile(w, 1.0);
                (last - first > 0.5e9).then(|| (w.len() - 1) as f64 / ((last - first) / 1e9))
            })
            .collect();
        median(&mut rates)
    }
}

/// Interquartile mean: the mean of the samples between the first and third quartile.  A
/// median-like centre for virtual-time samples, which tick in whole microseconds: their
/// plain median reads the same integer on most seeds, which hides real movement.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let (lo, hi) = (n / 4, n - n / 4);
    let mid = &values[lo..hi.max(lo + 1)];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds the result line's metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

impl Metrics {
    /// The per-metric median over several measurements of the same metric list.
    pub fn median_each(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        let Some(first) = runs.first() else {
            return out;
        };
        for (i, m) in first.0.iter().enumerate() {
            let mut v: Vec<f64> = runs.iter().map(|r| r.0[i].value).collect();
            out.put(&m.name, median(&mut v), m.unit);
        }
        out
    }
}

/// The final stdout line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        // JSON has no NaN or infinity: a metric that could not be measured reads 0.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
    }

    #[test]
    fn windowed_median_ignores_thin_windows() {
        let mut w = Windowed::default();
        for i in 0..10 {
            w.push(0, i as f64);
            w.push(1, 100.0 + i as f64);
        }
        w.push(2, 1e9);
        assert_eq!(w.median_of(0.5, 5), (4.5 + 104.5) / 2.0);
    }

    #[test]
    fn rates_and_interquartile_means() {
        let mut w = Windowed::default();
        for i in 0..1001u64 {
            w.push(0, (i * 1_000_000) as f64);
        }
        assert!((w.median_rate() - 1000.0).abs() < 1e-6);
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 2.5, 3.5];
        assert_eq!(interquartile_mean(&mut v), 2.75);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        m.put("x", f64::NAN, "count");
        assert_eq!(
            result_line(true, 3, 1, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
