//! Self-contained HTML report of experiment results: one SVG line chart
//! per scenario (normalized energy vs (m,k)-utilization, one series per
//! policy) plus the full data table.
//!
//! Chart design follows the repository's data-viz conventions: a
//! CVD-validated categorical palette applied in fixed slot order keyed to
//! the policy's identity (never its rank in the current chart), 2px
//! lines with 8px markers, a recessive grid, one y-axis, direct labels at
//! the line ends *and* a legend, a hover tooltip, a data table under
//! every chart (two light-mode slots sit below 3:1 contrast, so the
//! relief rule applies), and a selected dark mode via
//! `prefers-color-scheme`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mkss_policies::PolicyKind;

use crate::experiment::ExperimentResult;

/// Categorical palette (light, dark) per slot — validated with the
/// six-checks palette validator against both surfaces.
const SLOTS: [(&str, &str); 8] = [
    ("#2a78d6", "#3987e5"), // blue
    ("#1baf7a", "#199e70"), // aqua
    ("#eda100", "#c98500"), // yellow
    ("#008300", "#008300"), // green
    ("#4a3aa7", "#9085e9"), // violet
    ("#e34948", "#e66767"), // red
    ("#e87ba4", "#d55181"), // magenta
    ("#eb6834", "#d95926"), // orange
];

const WIDTH: f64 = 680.0;
const HEIGHT: f64 = 380.0;
const MARGIN_LEFT: f64 = 56.0;
const MARGIN_RIGHT: f64 = 120.0; // room for direct labels
const MARGIN_TOP: f64 = 24.0;
const MARGIN_BOTTOM: f64 = 44.0;

/// Stable slot for a policy: its position in [`PolicyKind::ALL`], so the
/// same policy is always the same hue across charts and filters.
fn slot_of(kind: PolicyKind) -> usize {
    PolicyKind::ALL.iter().position(|&k| k == kind).unwrap_or(0) % SLOTS.len()
}

struct Series {
    kind: PolicyKind,
    points: Vec<(f64, f64)>, // (utilization, normalized energy)
}

fn series_of(result: &ExperimentResult) -> Vec<Series> {
    let mut map: BTreeMap<PolicyKind, Vec<(f64, f64)>> = BTreeMap::new();
    for bucket in result.buckets.iter().filter(|b| b.sets > 0) {
        for (&kind, &value) in &bucket.normalized {
            map.entry(kind).or_default().push((bucket.midpoint, value));
        }
    }
    map.into_iter()
        .map(|(kind, points)| Series { kind, points })
        .collect()
}

fn x_pos(u: f64, lo: f64, hi: f64) -> f64 {
    let span = (hi - lo).max(1e-9);
    MARGIN_LEFT + (u - lo) / span * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
}

fn y_pos(v: f64, max: f64) -> f64 {
    let h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM;
    MARGIN_TOP + (1.0 - v / max) * h
}

fn chart_svg(result: &ExperimentResult, chart_id: usize) -> String {
    let series = series_of(result);
    let (lo, hi) = series
        .iter()
        .flat_map(|s| s.points.iter())
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(u, _)| {
            (lo.min(u), hi.max(u))
        });
    let y_max = 1.05
        * series
            .iter()
            .flat_map(|s| s.points.iter())
            .fold(1.0f64, |m, &(_, v)| m.max(v));

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg class="chart" role="img" aria-label="{} normalized energy vs utilization" viewBox="0 0 {WIDTH} {HEIGHT}" data-chart="{chart_id}">"#,
        result.config.scenario.panel()
    );
    // Recessive grid + y axis ticks.
    for i in 0..=4 {
        let v = y_max * f64::from(i) / 4.0;
        let y = y_pos(v, y_max);
        let _ = write!(
            svg,
            r#"<line class="grid" x1="{MARGIN_LEFT}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}"/>"#,
            WIDTH - MARGIN_RIGHT
        );
        let _ = write!(
            svg,
            r#"<text class="tick" x="{:.1}" y="{:.1}" text-anchor="end">{v:.2}</text>"#,
            MARGIN_LEFT - 8.0,
            y + 4.0
        );
    }
    // X ticks at bucket midpoints.
    let mut midpoints: Vec<f64> = result
        .buckets
        .iter()
        .filter(|b| b.sets > 0)
        .map(|b| b.midpoint)
        .collect();
    midpoints.dedup();
    for &u in &midpoints {
        let x = x_pos(u, lo, hi);
        let _ = write!(
            svg,
            r#"<text class="tick" x="{x:.1}" y="{:.1}" text-anchor="middle">{u:.2}</text>"#,
            HEIGHT - MARGIN_BOTTOM + 18.0
        );
    }
    // Axis titles (text tokens, never series color).
    let _ = write!(
        svg,
        r#"<text class="axis-title" x="{:.1}" y="{:.1}" text-anchor="middle">(m,k)-utilization</text>"#,
        (MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2.0,
        HEIGHT - 8.0
    );
    let _ = write!(
        svg,
        r#"<text class="axis-title" x="14" y="{:.1}" text-anchor="middle" transform="rotate(-90 14 {:.1})">energy / MKSS_ST</text>"#,
        HEIGHT / 2.0,
        HEIGHT / 2.0
    );

    // Series: 2px lines, 8px markers, direct label at the last point.
    for s in &series {
        let slot = slot_of(s.kind);
        let path: String = s
            .points
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| {
                format!(
                    "{}{:.1},{:.1}",
                    if i == 0 { "M" } else { "L" },
                    x_pos(u, lo, hi),
                    y_pos(v, y_max)
                )
            })
            .collect();
        let _ = write!(
            svg,
            r#"<path class="line s{slot}" d="{path}" fill="none"/>"#
        );
        for &(u, v) in &s.points {
            let _ = write!(
                svg,
                r#"<circle class="dot s{slot}" cx="{:.1}" cy="{:.1}" r="4" data-u="{u:.2}" data-v="{v:.4}" data-name="{}"><title>{} at {u:.2}: {v:.4}</title></circle>"#,
                x_pos(u, lo, hi),
                y_pos(v, y_max),
                s.kind.id(),
                s.kind.id(),
            );
        }
    }
    // Direct labels at the line ends, de-collided: sort by the final
    // point's y and enforce a 14px minimum separation.
    let mut labels: Vec<(usize, &str, f64, f64)> = series
        .iter()
        .filter_map(|s| {
            s.points.last().map(|&(u, v)| {
                (
                    slot_of(s.kind),
                    s.kind.id(),
                    x_pos(u, lo, hi) + 10.0,
                    y_pos(v, y_max) + 4.0,
                )
            })
        })
        .collect();
    labels.sort_by(|a, b| a.3.total_cmp(&b.3));
    for i in 1..labels.len() {
        if labels[i].3 - labels[i - 1].3 < 14.0 {
            labels[i].3 = labels[i - 1].3 + 14.0;
        }
    }
    for (slot, name, x, y) in labels {
        let _ = write!(
            svg,
            r#"<text class="direct-label s{slot}-ink" x="{x:.1}" y="{y:.1}">{name}</text>"#
        );
    }
    svg.push_str("</svg>");
    svg
}

fn data_table(result: &ExperimentResult) -> String {
    let series = series_of(result);
    let mut html = String::from("<table><thead><tr><th>(m,k)-util</th><th>sets</th>");
    for s in &series {
        let _ = write!(html, "<th>{}</th>", s.kind.id());
    }
    html.push_str("</tr></thead><tbody>");
    for bucket in &result.buckets {
        let _ = write!(
            html,
            "<tr><td>{:.2}</td><td>{}</td>",
            bucket.midpoint, bucket.sets
        );
        for s in &series {
            match bucket.normalized.get(&s.kind) {
                Some(v) if bucket.sets > 0 => {
                    let _ = write!(html, "<td>{v:.4}</td>");
                }
                _ => html.push_str("<td>–</td>"),
            }
        }
        html.push_str("</tr>");
    }
    html.push_str("</tbody></table>");
    html
}

fn legend(result: &ExperimentResult) -> String {
    let mut html = String::from(r#"<div class="legend">"#);
    for s in &series_of(result) {
        let slot = slot_of(s.kind);
        let _ = write!(
            html,
            r#"<span class="legend-item"><span class="swatch s{slot}-bg"></span>{}</span>"#,
            s.kind.id()
        );
    }
    html.push_str("</div>");
    html
}

/// Renders a complete standalone HTML report for the given experiment
/// results (typically the three Figure-6 scenarios).
///
/// # Examples
///
/// ```
/// use mkss_bench::experiment::{run_experiment, ExperimentConfig, Scenario};
/// use mkss_bench::report_html::render_report;
/// use mkss_core::time::Time;
///
/// let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
/// cfg.plan.sets_per_bucket = 1;
/// cfg.plan.from = 0.3;
/// cfg.plan.to = 0.5;
/// cfg.horizon = Time::from_ms(200);
/// let html = render_report(&[run_experiment(&cfg)]);
/// assert!(html.contains("<svg"));
/// assert!(html.contains("<table>"));
/// ```
pub fn render_report(results: &[ExperimentResult]) -> String {
    let mut style = String::from(
        r#"
  .viz-root { --surface-1:#fcfcfb; --text-primary:#0b0b0b; --text-secondary:#52514e;
              --grid:#e7e6e2; font:14px/1.45 system-ui,sans-serif;
              background:var(--surface-1); color:var(--text-primary);
              max-width:760px; margin:0 auto; padding:24px; }
"#,
    );
    for (i, &(light, _)) in SLOTS.iter().enumerate() {
        let _ = writeln!(style, "  .viz-root .s{i} {{ stroke: {light}; }}");
        let _ = writeln!(style, "  .viz-root .s{i}-bg {{ background: {light}; }}");
        let _ = writeln!(style, "  .viz-root .s{i}-ink {{ fill: {light}; }}");
    }
    style.push_str(
        r#"  @media (prefers-color-scheme: dark) {
    .viz-root { --surface-1:#1a1a19; --text-primary:#ffffff; --text-secondary:#c3c2b7;
                --grid:#34332f; }
"#,
    );
    for (i, &(_, dark)) in SLOTS.iter().enumerate() {
        let _ = writeln!(style, "    .viz-root .s{i} {{ stroke: {dark}; }}");
        let _ = writeln!(style, "    .viz-root .s{i}-bg {{ background: {dark}; }}");
        let _ = writeln!(style, "    .viz-root .s{i}-ink {{ fill: {dark}; }}");
    }
    style.push_str(
        r#"  }
  .viz-root h1 { font-size: 20px; }
  .viz-root h2 { font-size: 16px; margin: 28px 0 4px; }
  .viz-root .subtitle { color: var(--text-secondary); margin: 0 0 12px; }
  .viz-root svg.chart { width: 100%; height: auto; display: block; }
  .viz-root .grid { stroke: var(--grid); stroke-width: 1; }
  .viz-root .tick, .viz-root .axis-title { fill: var(--text-secondary); font-size: 11px; }
  .viz-root .line { stroke-width: 2; }
  .viz-root .dot { fill: var(--surface-1); stroke-width: 2; }
  .viz-root .direct-label { font-size: 12px; }
  .viz-root .legend { display: flex; gap: 16px; margin: 8px 0; color: var(--text-secondary); }
  .viz-root .legend-item { display: inline-flex; align-items: center; gap: 6px; }
  .viz-root .swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
  .viz-root table { border-collapse: collapse; margin: 12px 0 4px; font-size: 12px; }
  .viz-root th, .viz-root td { padding: 3px 10px; text-align: right;
                               border-bottom: 1px solid var(--grid); }
  .viz-root th:first-child, .viz-root td:first-child { text-align: left; }
  .viz-root .tooltip { position: fixed; pointer-events: none; background: var(--text-primary);
                       color: var(--surface-1); padding: 4px 8px; border-radius: 4px;
                       font-size: 12px; display: none; z-index: 10; }
"#,
    );

    let mut body = String::new();
    body.push_str("<h1>mkss — Figure 6 reproduction report</h1>");
    body.push_str(
        r#"<p class="subtitle">Normalized energy (MKSS_ST = 1.0) vs total (m,k)-utilization;
           deterministic seeded runs — see EXPERIMENTS.md for the analysis.</p>"#,
    );
    for (i, result) in results.iter().enumerate() {
        let _ = write!(
            body,
            "<h2>{} — {} scenario</h2>",
            result.config.scenario.panel(),
            result.config.scenario.id()
        );
        body.push_str(&legend(result));
        body.push_str(&chart_svg(result, i));
        body.push_str(&data_table(result));
        let _ = write!(
            body,
            r#"<p class="subtitle">run: {}</p>"#,
            result.stats.summary()
        );
    }
    body.push_str(r#"<div class="tooltip" id="tooltip"></div>"#);

    // Hover layer: nearest-marker tooltip.
    let script = r#"
  const tip = document.getElementById('tooltip');
  document.querySelectorAll('svg.chart').forEach(svg => {
    svg.addEventListener('mousemove', e => {
      let best = null, bestDist = 24 * 24;
      svg.querySelectorAll('circle.dot').forEach(dot => {
        const r = dot.getBoundingClientRect();
        const dx = e.clientX - (r.left + r.width / 2);
        const dy = e.clientY - (r.top + r.height / 2);
        const d = dx * dx + dy * dy;
        if (d < bestDist) { bestDist = d; best = dot; }
      });
      if (best) {
        tip.textContent = `${best.dataset.name} @ util ${best.dataset.u}: ${best.dataset.v}`;
        tip.style.left = (e.clientX + 12) + 'px';
        tip.style.top = (e.clientY - 10) + 'px';
        tip.style.display = 'block';
      } else {
        tip.style.display = 'none';
      }
    });
    svg.addEventListener('mouseleave', () => { tip.style.display = 'none'; });
  });
"#;

    format!(
        "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\
         <title>mkss Figure 6 report</title><style>{style}</style></head>\
         <body class=\"viz-root\">{body}<script>{script}</script></body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentConfig, Scenario};
    use mkss_core::time::Time;

    fn sample() -> ExperimentResult {
        let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
        cfg.plan.sets_per_bucket = 2;
        cfg.plan.from = 0.3;
        cfg.plan.to = 0.5;
        cfg.horizon = Time::from_ms(200);
        run_experiment(&cfg)
    }

    #[test]
    fn report_structure() {
        let result = sample();
        let html = render_report(&[result]);
        assert!(html.starts_with("<!doctype html>"));
        // One chart with three series: 3 paths, markers, direct labels.
        assert_eq!(html.matches("<path class=\"line").count(), 3);
        assert!(html.matches("circle class=\"dot").count() >= 6);
        assert_eq!(html.matches("direct-label").count(), 3 + 1); // 3 uses + css
                                                                 // Legend, table view (relief rule), tooltip, dark mode.
        assert!(html.contains("legend-item"));
        assert!(html.contains("<table>"));
        assert!(html.contains("prefers-color-scheme: dark"));
        assert!(html.contains("tooltip"));
        // Series colors keyed by stable slots, not chart-local rank.
        assert!(html.contains(".s0 { stroke: #2a78d6; }"));
    }

    #[test]
    fn slots_are_stable_per_policy() {
        // Static is slot 0 regardless of which policies a chart shows.
        assert_eq!(slot_of(PolicyKind::Static), 0);
        assert_eq!(slot_of(PolicyKind::DualPriority), 1);
        assert_eq!(slot_of(PolicyKind::Selective), 3);
        // A chart with only {DualPriority, Selective} must not repaint
        // them to slots 0/1.
        let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
        cfg.policies = vec![PolicyKind::Selective];
        cfg.plan.sets_per_bucket = 1;
        cfg.plan.from = 0.3;
        cfg.plan.to = 0.4;
        cfg.horizon = Time::from_ms(200);
        let html = render_report(&[run_experiment(&cfg)]);
        assert!(html.contains("class=\"line s3\""), "selective keeps slot 3");
    }

    #[test]
    fn empty_buckets_are_dashed_in_table() {
        let mut cfg = ExperimentConfig::fig6(Scenario::NoFault);
        cfg.plan.sets_per_bucket = 1;
        cfg.plan.from = 0.8; // likely empty at this utilization
        cfg.plan.to = 0.9;
        cfg.horizon = Time::from_ms(200);
        cfg.workload.max_attempts = 5;
        let result = run_experiment(&cfg);
        let html = render_report(&[result]);
        assert!(html.contains("<table>"));
    }
}
