//! Terminal rendering of experiment series — the closest a CLI gets to the
//! paper's figures. Each algorithm gets a glyph; the x-axis is the memory
//! ratio (descending, as the paper draws it), the y-axis response seconds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sweep::ExperimentPoint;

const GLYPHS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Render one figure's points as an ASCII chart of `width` × `height`
/// characters (plus axes and legend).
pub fn render(points: &[ExperimentPoint], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 6, "chart too small to draw");
    if points.is_empty() {
        return "(no points)\n".into();
    }

    // Group by series label, preserving first-seen order.
    let mut order: Vec<&str> = Vec::new();
    let mut series: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for p in points {
        if !series.contains_key(p.algorithm.as_str()) {
            order.push(&p.algorithm);
        }
        series
            .entry(p.algorithm.as_str())
            .or_default()
            .push((p.ratio, p.seconds));
    }

    let (mut xmin, mut xmax) = (f64::MAX, f64::MIN);
    let (mut ymax, ymin) = (f64::MIN, 0.0f64);
    for p in points {
        xmin = xmin.min(p.ratio);
        xmax = xmax.max(p.ratio);
        ymax = ymax.max(p.seconds);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    ymax *= 1.05;

    let mut grid = vec![vec![' '; width]; height];
    for (si, name) in order.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &series[name] {
            // Paper convention: full memory on the right.
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            let cell = &mut grid[row][col];
            // Collisions render as '?' so overplotting is visible.
            *cell = if *cell == ' ' || *cell == glyph {
                glyph
            } else {
                '?'
            };
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let yval = ymax * (height - 1 - i) as f64 / (height - 1) as f64;
        let _ = write!(out, "{yval:>8.1} |");
        out.extend(row.iter());
        out.push('\n');
    }
    let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>8}  {:<width$.2}{:>.2}",
        "ratio",
        xmin,
        xmax,
        width = width - 3
    );
    out.push_str("          ");
    for (si, name) in order.iter().enumerate() {
        let _ = write!(out, "{} {}   ", GLYPHS[si % GLYPHS.len()], name);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepBuilder, Workload};
    use gamma_core::query::Algorithm;

    fn points() -> Vec<ExperimentPoint> {
        let w = Workload::scaled(800, 80);
        SweepBuilder::new(&w).run(
            &[Algorithm::HybridHash, Algorithm::GraceHash],
            &[1.0, 0.5, 0.25],
        )
    }

    #[test]
    fn renders_all_series_with_axes() {
        let pts = points();
        let chart = render(&pts, 40, 10);
        assert!(chart.contains('*'), "first series glyph present:\n{chart}");
        assert!(chart.contains('o'), "second series glyph present:\n{chart}");
        assert!(chart.contains("hybrid"));
        assert!(chart.contains("grace"));
        assert!(chart.contains('|'));
        assert!(chart.lines().count() >= 12);
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(render(&[], 40, 10), "(no points)\n");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_canvas_rejected() {
        let pts = points();
        render(&pts, 4, 2);
    }
}
