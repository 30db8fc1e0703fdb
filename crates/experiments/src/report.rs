//! Experiment output: aligned tables on stdout, CSV files on disk and the
//! JSON the CI smokes diff, all from one column schema.
//!
//! Every flat row type implements [`Row`], declaring its columns once:
//! a name and a [`Kind`] that both reads the value and fixes its unit and
//! number format in each rendering. [`table`], [`csv`] and [`json`] are
//! the only writers of experiment rows. [`Figure::table`] (a pivot by
//! offered load) and [`crate::plot::ascii`] are not row lists and draw
//! themselves; a figure's CSV is the row list of its [`Point`]s.

use std::path::{Path, PathBuf};

use sim_core::SimDuration;
use workload::RunMetrics;

/// One labelled latency-throughput curve (one line in a paper figure).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label, e.g. "Shinjuku-Offload".
    pub label: String,
    /// Sweep results in offered-load order.
    pub points: Vec<RunMetrics>,
}

/// A complete figure: several curves over the same offered loads.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier, e.g. "fig2".
    pub id: String,
    /// Human title echoing the paper's caption.
    pub title: String,
    /// The curves.
    pub curves: Vec<Curve>,
}

impl Figure {
    /// Render an aligned text table: one row per offered load, achieved
    /// throughput and p99 per curve.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = write!(out, "{:>14}", "offered_rps");
        for c in &self.curves {
            let _ = write!(
                out,
                " | {:>14} {:>12}",
                format!("{}_rps", short(&c.label)),
                format!("{}_p99us", short(&c.label))
            );
        }
        let _ = writeln!(out);
        let rows = self
            .curves
            .iter()
            .map(|c| c.points.len())
            .max()
            .unwrap_or(0);
        for i in 0..rows {
            let offered = self
                .curves
                .iter()
                .find_map(|c| c.points.get(i).map(|m| m.offered_rps))
                .unwrap_or(0.0);
            let _ = write!(out, "{offered:>14.0}");
            for c in &self.curves {
                match c.points.get(i) {
                    Some(m) => {
                        let _ = write!(
                            out,
                            " | {:>14.0} {:>12.1}",
                            m.achieved_rps,
                            m.p99.as_micros_f64()
                        );
                    }
                    None => {
                        let _ = write!(out, " | {:>14} {:>12}", "-", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Every point of every curve, curve by curve: the figure's CSV rows.
    pub fn rows(&self) -> Vec<Point<'_>> {
        self.curves
            .iter()
            .flat_map(|c| {
                c.points.iter().map(|metrics| Point {
                    curve: &c.label,
                    metrics,
                })
            })
            .collect()
    }
}

/// One point of a figure curve: the row every figure CSV is made of.
#[derive(Debug, Clone, Copy)]
pub struct Point<'a> {
    /// The curve's legend label.
    pub curve: &'a str,
    /// The run behind the point.
    pub metrics: &'a RunMetrics,
}

impl Row for Point<'_> {
    fn columns() -> Vec<Column<Self>> {
        use Kind::*;
        vec![
            col("curve", Text(|p| p.curve.into())),
            col("offered_rps", Load(|p| p.metrics.offered_rps)),
            col("achieved_rps", Rate(|p| p.metrics.achieved_rps)),
            col("goodput", Ratio(4, |p| p.metrics.goodput_ratio())),
            col("p50", Duration(|p| p.metrics.p50)),
            col("p99", Duration(|p| p.metrics.p99)),
            col("p999", Duration(|p| p.metrics.p999)),
            col("p99_short", Duration(|p| p.metrics.p99_short)),
            col("p99_long", Duration(|p| p.metrics.p99_long)),
            col("mean", Duration(|p| p.metrics.mean)),
            col("completed", Int(|p| p.metrics.completed as i64)),
            col("dropped", Int(|p| p.metrics.dropped as i64)),
            col("retries", Int(|p| p.metrics.faults.retries as i64)),
            col("preemptions", Int(|p| p.metrics.preemptions as i64)),
            col(
                "worker_utilization",
                Ratio(4, |p| p.metrics.worker_utilization),
            ),
        ]
    }
}

/// A row type with one declared column list.
pub trait Row: Sized {
    /// The columns, in the order every rendering writes them.
    fn columns() -> Vec<Column<Self>>;
}

/// How a column reads its value from a row `R`, and so how each
/// rendering writes it. The kind, not the row type, owns the unit and
/// number format.
pub enum Kind<R> {
    /// A label: left-aligned in the table, quoted in CSV when it carries
    /// a comma, quote or newline, an escaped string in JSON.
    Text(fn(&R) -> String),
    /// A count, written as is.
    Int(fn(&R) -> i64),
    /// A span of simulated time: `Display` in the table, `<name>_us` with
    /// three decimals in CSV, whole `<name>_ns` in JSON.
    Duration(fn(&R) -> SimDuration),
    /// A ratio with the given decimal places in CSV and JSON; the table
    /// shows four.
    Ratio(usize, fn(&R) -> f64),
    /// A fraction the table shows as a percentage (`<name>%`, two
    /// places); CSV and JSON write the fraction in its shortest exact form.
    Percent(fn(&R) -> f64),
    /// A configured request rate: whole requests per second everywhere.
    Load(fn(&R) -> f64),
    /// A measured request rate: whole requests per second in the table
    /// and CSV, three decimals in JSON.
    Rate(fn(&R) -> f64),
}

/// The three renderings of a row list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// [`table`]: aligned text for stdout.
    Table,
    /// [`csv`]: the files under `results/`.
    Csv,
    /// [`json`]: the rows CI diffs.
    Json,
}

/// One column of a [`Row`]: a name, a [`Kind`], and the renderings that
/// carry it.
pub struct Column<R> {
    name: &'static str,
    kind: Kind<R>,
    formats: &'static [Format],
}

/// A column every rendering carries.
pub fn col<R>(name: &'static str, kind: Kind<R>) -> Column<R> {
    Column {
        name,
        kind,
        formats: &[Format::Table, Format::Csv, Format::Json],
    }
}

impl<R> Column<R> {
    /// Restrict the column to `formats`. A row whose CSV and JSON order
    /// their columns differently lists a column once per position.
    pub fn only(self, formats: &'static [Format]) -> Column<R> {
        Column { formats, ..self }
    }

    fn header(&self, format: Format) -> String {
        match (&self.kind, format) {
            (Kind::Duration(_), Format::Csv) => format!("{}_us", self.name),
            (Kind::Duration(_), Format::Json) => format!("{}_ns", self.name),
            (Kind::Percent(_), Format::Table) => format!("{}%", self.name),
            _ => self.name.to_string(),
        }
    }

    fn cell(&self, row: &R, format: Format) -> String {
        use Format::*;
        use Kind::*;
        match (&self.kind, format) {
            (Text(f), Table) => f(row),
            (Text(f), Csv) => csv_field(&f(row)),
            (Text(f), Json) => format!("\"{}\"", json_escape(&f(row))),
            (Int(f), _) => f(row).to_string(),
            (Duration(f), Table) => f(row).to_string(),
            (Duration(f), Csv) => format!("{:.3}", f(row).as_micros_f64()),
            (Duration(f), Json) => f(row).as_nanos().to_string(),
            (Ratio(_, f), Table) => format!("{:.4}", f(row)),
            (Ratio(places, f), _) => format!("{:.*}", places, f(row)),
            (Percent(f), Table) => format!("{:.2}", f(row) * 100.0),
            (Percent(f), _) => f(row).to_string(),
            (Load(f), _) | (Rate(f), Table | Csv) => format!("{:.0}", f(row)),
            (Rate(f), Json) => format!("{:.3}", f(row)),
        }
    }
}

fn columns<R: Row>(format: Format) -> Vec<Column<R>> {
    R::columns()
        .into_iter()
        .filter(|c| c.formats.contains(&format))
        .collect()
}

/// Render rows as an aligned table under a `## title` line: labels
/// left-aligned, numbers right-aligned, each column as wide as its
/// widest cell.
pub fn table<R: Row>(title: &str, rows: &[R]) -> String {
    let cols = columns::<R>(Format::Table);
    let mut lines = vec![cols.iter().map(|c| c.header(Format::Table)).collect()];
    lines.extend(rows.iter().map(|r| {
        cols.iter()
            .map(|c| c.cell(r, Format::Table))
            .collect::<Vec<_>>()
    }));
    let widths: Vec<usize> = (0..cols.len())
        .map(|i| {
            lines
                .iter()
                .map(|l| l[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = format!("## {title}\n");
    for line in &lines {
        let fields: Vec<String> = line
            .iter()
            .zip(&cols)
            .zip(&widths)
            .map(|((cell, c), &w)| match c.kind {
                Kind::Text(_) => format!("{cell:<w$}"),
                _ => format!("{cell:>w$}"),
            })
            .collect();
        out.push_str(fields.join(" ").trim_end());
        out.push('\n');
    }
    out
}

/// Render rows as CSV: a header line, then one line per row.
pub fn csv<R: Row>(rows: &[R]) -> String {
    let cols = columns::<R>(Format::Csv);
    let line = |cells: Vec<String>| cells.join(",") + "\n";
    let mut out = line(cols.iter().map(|c| c.header(Format::Csv)).collect());
    for r in rows {
        out.push_str(&line(cols.iter().map(|c| c.cell(r, Format::Csv)).collect()));
    }
    out
}

/// Render rows as a JSON array, one object per line with keys in column
/// order (no external serializer, so the bytes are stable).
pub fn json<R: Row>(rows: &[R]) -> String {
    let cols = columns::<R>(Format::Json);
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = cols
                .iter()
                .map(|c| format!("\"{}\":{}", c.header(Format::Json), c.cell(r, Format::Json)))
                .collect();
            format!("  {{{}}}", fields.join(","))
        })
        .collect();
    if objects.is_empty() {
        "[\n]".to_string()
    } else {
        format!("[\n{}\n]", objects.join(",\n"))
    }
}

/// Write the rows' CSV to `dir/<name>.csv`, creating the directory.
pub fn write_csv<R: Row>(rows: &[R], dir: &Path, name: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, csv(rows))?;
    Ok(path)
}

/// Quote a CSV field when it needs it. Policy-parameterised labels carry
/// commas (`wfq:w=4,1,1`), which would otherwise shift every column after
/// them.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Escape a string for the inside of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Reduce a label to a column-friendly slug (alphanumerics only, but
/// never truncated into ambiguity: "Shinjuku" and "Shinjuku-Offload"
/// must stay distinct).
fn short(label: &str) -> String {
    label
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(offered: f64) -> RunMetrics {
        RunMetrics {
            offered_rps: offered,
            achieved_rps: offered,
            p50: SimDuration::from_micros(5),
            p99: SimDuration::from_micros(20),
            p999: SimDuration::from_micros(40),
            p99_short: SimDuration::from_micros(18),
            p99_long: SimDuration::from_micros(40),
            mean: SimDuration::from_micros(7),
            completed: 100,
            dropped: 0,
            preemptions: 3,
            worker_utilization: 0.42,
            stages: None,
            faults: workload::FaultMetrics {
                launched: 100,
                completed_all: 100,
                attempts: 100,
                retries: 2,
                ..Default::default()
            },
        }
    }

    fn figure() -> Figure {
        Figure {
            id: "figX".into(),
            title: "test figure".into(),
            curves: vec![
                Curve {
                    label: "Shinjuku".into(),
                    points: vec![metrics(1e5), metrics(2e5)],
                },
                Curve {
                    label: "Shinjuku-Offload".into(),
                    points: vec![metrics(1e5), metrics(2e5)],
                },
            ],
        }
    }

    /// A row exercising every kind, with an awkward label.
    struct Sample {
        label: &'static str,
        count: u64,
        span: SimDuration,
        share: f64,
        rps: f64,
    }

    impl Row for Sample {
        fn columns() -> Vec<Column<Self>> {
            use Kind::*;
            vec![
                col("label", Text(|r| r.label.into())),
                col("count", Int(|r| r.count as i64)),
                col("span", Duration(|r| r.span)),
                col("share", Ratio(6, |r| r.share)),
                col("loss", Percent(|r| r.share)),
                col("offered_rps", Load(|r| r.rps)),
                col("achieved_rps", Rate(|r| r.rps)),
                col("csv_only", Int(|r: &Sample| r.count as i64)).only(&[Format::Csv]),
            ]
        }
    }

    fn samples() -> Vec<Sample> {
        ["wfq:w=4,1,1", "say \"hi\"", "back\\slash", "plain"]
            .into_iter()
            .map(|label| Sample {
                label,
                count: 7,
                span: SimDuration::from_nanos(21_887),
                share: 0.01,
                rps: 350_000.0,
            })
            .collect()
    }

    /// Split one CSV line into fields, honouring quoted commas.
    fn csv_fields(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        for ch in line.chars() {
            match ch {
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                _ => fields.last_mut().unwrap().push(ch),
            }
        }
        fields
    }

    #[test]
    fn csv_header_and_rows_have_the_same_column_count() {
        let rows = samples();
        for text in [csv(&rows), csv(&figure().rows())] {
            let lines: Vec<&str> = text.lines().collect();
            let header = csv_fields(lines[0]).len();
            assert!(lines.len() > 1, "{text}");
            for l in &lines[1..] {
                assert_eq!(csv_fields(l).len(), header, "{l}");
            }
        }
        let header = csv(&rows).lines().next().unwrap().to_string();
        assert_eq!(
            header,
            "label,count,span_us,share,loss,offered_rps,achieved_rps,csv_only"
        );
    }

    #[test]
    fn comma_bearing_labels_are_quoted_in_csv() {
        let text = csv(&samples());
        let first = text.lines().nth(1).unwrap();
        assert_eq!(
            first,
            "\"wfq:w=4,1,1\",7,21.887,0.010000,0.01,350000,350000,7"
        );
        assert!(text.contains("\"say \"\"hi\"\"\""), "{text}");
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let text = json(&samples());
        assert!(text.contains(r#""label":"say \"hi\"""#), "{text}");
        assert!(text.contains(r#""label":"back\\slash""#), "{text}");
        assert!(
            text.starts_with("[\n  {") && text.ends_with("}\n]"),
            "{text}"
        );
        assert_eq!(json::<Sample>(&[]), "[\n]");
    }

    #[test]
    fn every_json_object_carries_every_column() {
        let rows = samples();
        let text = json(&rows);
        let objects: Vec<&str> = text.lines().filter(|l| l.starts_with("  {")).collect();
        assert_eq!(objects.len(), rows.len());
        for o in objects {
            for key in [
                "label",
                "count",
                "span_ns",
                "share",
                "loss",
                "offered_rps",
                "achieved_rps",
            ] {
                assert!(o.contains(&format!("\"{key}\":")), "{key} missing: {o}");
            }
            assert!(!o.contains("csv_only"), "{o}");
            assert!(o.contains("\"span_ns\":21887,\"share\":0.010000,\"loss\":0.01"));
            assert!(o.contains("\"offered_rps\":350000,\"achieved_rps\":350000.000"));
        }
    }

    #[test]
    fn table_aligns_every_row_under_its_title() {
        let rows = samples();
        let t = table("sample — test", &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "## sample — test");
        assert_eq!(lines.len(), 2 + rows.len());
        assert!(lines[1].starts_with("label "), "{t}");
        assert!(lines[1].contains("loss%"), "{t}");
        assert!(
            lines[2].contains("21.887us") && lines[2].contains(" 1.00 "),
            "{t}"
        );
        assert!(
            lines[2].contains(" 0.0100 "),
            "four places in the table: {t}"
        );
        assert!(!lines[1].contains("csv_only"), "{t}");
    }

    #[test]
    fn figure_csv_writes_one_row_per_point() {
        let c = csv(&figure().rows());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + 4 rows");
        assert_eq!(
            lines[0],
            "curve,offered_rps,achieved_rps,goodput,p50_us,p99_us,p999_us,p99_short_us,p99_long_us,mean_us,completed,dropped,retries,preemptions,worker_utilization"
        );
        assert_eq!(
            lines[1],
            "Shinjuku,100000,100000,1.0000,5.000,20.000,40.000,18.000,40.000,7.000,100,0,2,3,0.4200"
        );
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("mindgap-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_csv(&figure().rows(), &dir, "figX").unwrap();
        assert!(path.ends_with("figX.csv"));
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("Shinjuku-Offload"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_table_contains_all_points() {
        let t = figure().table();
        assert!(t.contains("figX"));
        assert!(t.contains("100000"));
        assert!(t.contains("200000"));
        assert!(t.contains("20.0"), "p99 in us: {t}");
    }

    #[test]
    fn uneven_curves_render_dashes() {
        let mut f = figure();
        f.curves[1].points.pop();
        let t = f.table();
        assert!(t.contains('-'));
    }
}
