//! Metric names and the one-line JSON result.

use crate::check::Tally;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, made of `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, as one JSON object.
///
/// # Errors
///
/// Returns a message for a non-finite value or an invalid name, which
/// JSON or the metric naming rules cannot carry.
pub fn json_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !m.value.is_finite() {
            return Err(format!("cannot report metric {} = {}", m.name, m.value));
        }
        body.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.notes.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}
