//! Campaign-level aggregation: the paper's Table II, Table III and
//! Fig. 5–7 rollups computed over [`EvalRow`]s (so they work
//! identically for fresh runs, resumed JSONL files and merged shards).

use crate::eval::{EvalRow, MethodKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use uvllm::Stage;

/// Aggregated view over a set of result rows.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    rows: Vec<EvalRow>,
}

/// `100 * num / den` with an empty-set guard.
pub fn percent(num: usize, den: usize) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64 * 100.0
    }
}

/// Formats a percentage cell (NaN → `x`, the paper's "not applicable").
pub fn pct_cell(v: f64) -> String {
    if v.is_nan() {
        "x".to_string()
    } else {
        format!("{v:.1}")
    }
}

/// Formats a seconds cell (NaN → `x`).
fn secs_cell(v: f64) -> String {
    if v.is_nan() {
        "x".to_string()
    } else {
        format!("{v:.2}")
    }
}

/// Table II's stage columns, in pipeline order.
const STAGES: [Stage; 3] = [Stage::Preprocess, Stage::RepairMs, Stage::RepairSl];

/// Counts behind one cell of a rollup.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    rows: usize,
    hit: usize,
    fixed: usize,
    claimed: usize,
    sim_ms: u64,
    llm_calls: u64,
}

impl Tally {
    fn add(&mut self, row: &EvalRow) {
        self.rows += 1;
        self.hit += usize::from(row.hit);
        self.fixed += usize::from(row.fixed);
        self.claimed += usize::from(row.claimed);
        self.sim_ms += row.sim_latency_ms;
        self.llm_calls += row.llm_calls;
    }

    fn fr(&self) -> f64 {
        percent(self.fixed, self.rows)
    }

    fn hr(&self) -> f64 {
        percent(self.hit, self.rows)
    }

    fn sim_secs(&self) -> f64 {
        if self.rows == 0 {
            f64::NAN
        } else {
            self.sim_ms as f64 / 1000.0 / self.rows as f64
        }
    }

    /// `FR/HR` cell (`x` when the cell has no rows).
    fn fr_hr_cell(&self) -> String {
        if self.rows == 0 {
            "x".to_string()
        } else {
            format!("{}/{}", pct_cell(self.fr()), pct_cell(self.hr()))
        }
    }
}

/// One Table II row: UVLLM's per-stage attribution next to MEIC.
#[derive(Debug, Clone, Copy, Default)]
struct StageTally {
    uvllm: Tally,
    /// UVLLM fixes per [`STAGES`] entry.
    fixed_by: [usize; 3],
    meic: Tally,
}

impl StageTally {
    fn add(&mut self, row: &EvalRow) {
        if row.method == MethodKind::Meic.label() {
            self.meic.add(row);
            return;
        }
        self.uvllm.add(row);
        if row.fixed {
            let stage = STAGES.iter().position(|s| row.fixed_by.as_deref() == Some(s.label()));
            if let Some(i) = stage {
                self.fixed_by[i] += 1;
            }
        }
    }

    fn cells(&self, label: String) -> Vec<String> {
        let mut cells = vec![label];
        for fixes in self.fixed_by {
            cells.push(pct_cell(percent(fixes, self.uvllm.rows)));
        }
        let (ut, mt) = (self.uvllm.sim_secs(), self.meic.sim_secs());
        cells.extend([
            pct_cell(self.uvllm.fr()),
            secs_cell(ut),
            pct_cell(self.meic.fr()),
            secs_cell(mt),
            if ut > 0.0 && mt.is_finite() { format!("{:.2}x", mt / ut) } else { "x".into() },
        ]);
        cells
    }
}

/// One Fig. 7 row: per-method (syntax, functional) tallies of a design.
#[derive(Debug, Default)]
struct DesignTally<'a> {
    group: &'a str,
    instances: BTreeSet<&'a str>,
    /// Indexed by method, then `[syntax, functional]`.
    cells: Vec<[Tally; 2]>,
}

impl CampaignReport {
    /// Builds a report over `rows`.
    pub fn new(rows: Vec<EvalRow>) -> Self {
        CampaignReport { rows }
    }

    /// The underlying rows.
    pub fn rows(&self) -> &[EvalRow] {
        &self.rows
    }

    /// Method labels present, in first-seen order.
    pub fn methods(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for row in &self.rows {
            if !seen.contains(&row.method) {
                seen.push(row.method.clone());
            }
        }
        seen
    }

    fn tally(&self, filter: impl Fn(&EvalRow) -> bool) -> Tally {
        let mut tally = Tally::default();
        self.rows.iter().filter(|r| filter(r)).for_each(|r| tally.add(r));
        tally
    }

    /// Fix rate (%) over rows matching `filter`.
    pub fn fr(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        self.tally(filter).fr()
    }

    /// Hit rate (%) over rows matching `filter`.
    pub fn hr(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        self.tally(filter).hr()
    }

    /// Mean simulated execution time (seconds) over rows matching
    /// `filter`.
    pub fn mean_sim_secs(&self, filter: impl Fn(&EvalRow) -> bool) -> f64 {
        self.tally(filter).sim_secs()
    }

    /// Renders every rollup as aligned ASCII tables. One pass over the
    /// rows fills every table's tallies, so the cost stays linear in
    /// the row count (the resident service renders this on every
    /// status poll).
    pub fn render(&self) -> String {
        let methods = self.methods();
        let mut per_method = vec![Tally::default(); methods.len()];
        let mut per_class = vec![[Tally::default(); 2]; methods.len()];
        // Keyed by (functional?, category): all-method tally plus one
        // per method.
        let mut per_category: BTreeMap<(bool, &str), (Tally, Vec<Tally>)> = BTreeMap::new();
        let mut per_design: BTreeMap<&str, DesignTally> = BTreeMap::new();
        // Table II rows per class (`[syntax, functional]`): groups, the
        // class total, then the overall total.
        let mut stage_groups: [BTreeMap<&str, StageTally>; 2] = Default::default();
        let mut stage_classes = [StageTally::default(); 2];
        let mut stage_overall = StageTally::default();
        for row in &self.rows {
            let m = methods.iter().position(|label| *label == row.method).expect("seen above");
            let class = usize::from(!row.syntax);
            per_method[m].add(row);
            per_class[m][class].add(row);
            let (all, by_method) = per_category
                .entry((!row.syntax, &row.category))
                .or_insert_with(|| (Tally::default(), vec![Tally::default(); methods.len()]));
            all.add(row);
            by_method[m].add(row);
            let design = per_design.entry(&row.design).or_insert_with(|| DesignTally {
                group: &row.group,
                cells: vec![[Tally::default(); 2]; methods.len()],
                ..DesignTally::default()
            });
            design.instances.insert(&row.instance);
            design.cells[m][class].add(row);
            if row.method == MethodKind::Uvllm.label() || row.method == MethodKind::Meic.label() {
                stage_groups[class].entry(&row.group).or_default().add(row);
                stage_classes[class].add(row);
                stage_overall.add(row);
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "campaign rows: {}", self.rows.len());

        // ---- Per-method summary (Fig. 5/6 aggregate + cost) ---------
        let mut summary = AsciiTable::new(&[
            "Method",
            "Jobs",
            "HR/%",
            "FR/%",
            "Claimed/%",
            "SimT/s",
            "LLM calls",
        ]);
        for (method, t) in methods.iter().zip(&per_method) {
            summary.row(vec![
                method.clone(),
                t.rows.to_string(),
                pct_cell(t.hr()),
                pct_cell(t.fr()),
                pct_cell(percent(t.claimed, t.rows)),
                secs_cell(t.sim_secs()),
                t.llm_calls.to_string(),
            ]);
        }
        out.push_str("\n== Per-method summary ==\n");
        out.push_str(&summary.render());

        // ---- Syntax vs functional (Fig. 5/6 averages, Table III) ----
        let mut split = AsciiTable::new(&[
            "Method", "Syn HR", "Syn FR", "Syn gap", "Syn SimT", "Fun HR", "Fun FR", "Fun gap",
            "Fun SimT",
        ]);
        for (method, classes) in methods.iter().zip(&per_class) {
            let mut cells = vec![method.clone()];
            for t in classes {
                cells.extend([
                    pct_cell(t.hr()),
                    pct_cell(t.fr()),
                    if t.rows == 0 { "x".into() } else { format!("{:+.1}", t.hr() - t.fr()) },
                    secs_cell(t.sim_secs()),
                ]);
            }
            split.row(cells);
        }
        out.push_str("\n== Syntax vs functional (Fig. 5/6, Table III) ==\n");
        out.push_str("gap = HR - FR in pp (the overfitting gap); SimT = mean simulated s\n");
        out.push_str(&split.render());

        // ---- Per-category FR/HR per method (Fig. 5/6 x-axes) --------
        let mut header = vec!["Category", "Rows", "FR/%", "HR/%"];
        header.extend(methods.iter().map(String::as_str));
        let mut cat = AsciiTable::new(&header);
        for ((_, category), (all, by_method)) in &per_category {
            let mut cells = vec![
                category.to_string(),
                all.rows.to_string(),
                pct_cell(all.fr()),
                pct_cell(all.hr()),
            ];
            cells.extend(by_method.iter().map(Tally::fr_hr_cell));
            cat.row(cells);
        }
        out.push_str(
            "\n== Per-category FR/HR by method (Fig. 5 syntax, then Fig. 6 functional) ==\n",
        );
        out.push_str("method cells: FR/HR %\n");
        out.push_str(&cat.render());

        // ---- Per-design FR heat map (Fig. 7) ------------------------
        let mut header = vec!["Design", "Group", "Inst"];
        header.extend(methods.iter().map(String::as_str));
        let mut heat = AsciiTable::new(&header);
        for (design, t) in &per_design {
            let mut cells =
                vec![design.to_string(), t.group.to_string(), t.instances.len().to_string()];
            cells.extend(
                t.cells
                    .iter()
                    .map(|[syn, fun]| format!("{}/{}", pct_cell(syn.fr()), pct_cell(fun.fr()))),
            );
            heat.row(cells);
        }
        out.push_str("\n== Per-design FR heat map (Fig. 7) ==\n");
        out.push_str("method cells: syntax FR / functional FR % (x = no such rows)\n");
        out.push_str(&heat.render());

        // ---- Stage attribution (Table II) ---------------------------
        let mut table = AsciiTable::new(&[
            "Types",
            "Pre FR",
            "MS FR",
            "SL FR",
            "UVLLM FR",
            "UVLLM SimT",
            "MEIC FR",
            "MEIC SimT",
            "Speedup",
        ]);
        for (class, tag, total) in [(0, "s", "Syntax"), (1, "f", "Function")] {
            for (group, t) in &stage_groups[class] {
                if t.uvllm.rows > 0 {
                    table.row(t.cells(format!("{group} {tag}")));
                }
            }
            if stage_classes[class].uvllm.rows > 0 {
                table.row(stage_classes[class].cells(total.to_string()));
            }
        }
        table.row(stage_overall.cells("Overall".to_string()));
        out.push_str("\n== Stage attribution (Table II) ==\n");
        out.push_str(
            "stage FR: UVLLM fixes by the stage that made the final change (they sum to \
             UVLLM FR); speedup = MEIC SimT / UVLLM SimT\n",
        );
        out.push_str(&table.render());
        out
    }
}

/// A minimal right-aligned ASCII table (first column left-aligned).
#[derive(Debug, Clone, Default)]
pub struct AsciiTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl AsciiTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        AsciiTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row of cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the header, a rule and the rows, columns aligned.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "  {cell:>w$}");
                }
            }
            out.push('\n');
        };
        render_row(&self.header, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(method: &str, design: &str, syntax: bool, hit: bool, fixed: bool) -> EvalRow {
        EvalRow {
            id: format!("{design}/k#1@{method}"),
            instance: format!("{design}/k#1"),
            design: design.to_string(),
            group: "Arithmetic".into(),
            kind: "k".into(),
            syntax,
            category: if syntax { "Scope issues" } else { "Flawed conditions" }.into(),
            method: method.to_string(),
            backend: "event".into(),
            hit,
            fixed,
            outcome: if fixed { "pass" } else { "mismatch" }.into(),
            claimed: fixed,
            llm_calls: 2,
            prompt_tokens: 10,
            completion_tokens: 5,
            sim_latency_ms: 2000,
            fixed_by: fixed.then(|| "Repair in MS Mode".to_string()),
            degraded: None,
            llm_wait_ms: None,
            llm_batch_max: None,
        }
    }

    #[test]
    fn rates_and_rendering() {
        let mut meic = row("MEIC", "mux4", false, false, false);
        meic.sim_latency_ms = 6000;
        let report = CampaignReport::new(vec![
            row("UVLLM", "adder_8bit", true, true, true),
            EvalRow {
                instance: "adder_8bit/f#1".into(),
                ..row("UVLLM", "adder_8bit", false, true, false)
            },
            meic,
        ]);
        assert!((report.fr(|r| r.method == "UVLLM") - 50.0).abs() < 1e-9);
        assert!((report.hr(|r| r.method == "UVLLM") - 100.0).abs() < 1e-9);
        assert!(report.fr(|r| r.method == "nope").is_nan());
        assert_eq!(report.methods(), vec!["UVLLM".to_string(), "MEIC".to_string()]);
        assert!((report.mean_sim_secs(|r| r.method == "UVLLM") - 2.0).abs() < 1e-9);
        let rendered = report.render();
        for heading in ["Per-method summary", "Fig. 5/6", "Fig. 7", "Table II", "Table III"] {
            assert!(rendered.contains(heading), "missing {heading}:\n{rendered}");
        }
        let line = |section: &str, prefix: &str| -> Vec<String> {
            let tail = rendered.split(section).nth(1).expect(section);
            let line = tail.lines().find(|l| l.starts_with(prefix)).expect(prefix);
            line.split_whitespace().map(String::from).collect()
        };
        // Fig. 5/6: FR/HR per category × method, `x` where a method
        // has no rows in the category.
        assert_eq!(
            line("Fig. 6 functional", "Flawed"),
            ["Flawed", "conditions", "2", "0.0", "50.0", "0.0/100.0", "0.0/0.0"]
        );
        assert_eq!(
            line("Fig. 6 functional", "Scope"),
            ["Scope", "issues", "1", "100.0", "100.0", "100.0/100.0", "x"]
        );
        // Fig. 7: syntax/functional FR per design × method.
        assert_eq!(
            line("(Fig. 7)", "adder_8bit"),
            ["adder_8bit", "Arithmetic", "2", "100.0/0.0", "x/x"]
        );
        assert_eq!(line("(Fig. 7)", "mux4"), ["mux4", "Arithmetic", "1", "x/x", "x/0.0"]);
        // Table III: per-class SimT (and the HR - FR gap).
        assert_eq!(
            line("Table III)", "MEIC"),
            ["MEIC", "x", "x", "x", "x", "0.0", "0.0", "+0.0", "6.00"]
        );
        assert_eq!(
            line("Table III)", "UVLLM"),
            ["UVLLM", "100.0", "100.0", "+0.0", "2.00", "100.0", "0.0", "+100.0", "2.00"]
        );
        // Table II: per-stage FR, MEIC FR and the SimT speedup.
        let table2 = "(Table II)";
        assert_eq!(
            line(table2, "Arithmetic s"),
            ["Arithmetic", "s", "0.0", "100.0", "0.0", "100.0", "2.00", "x", "x", "x"]
        );
        assert_eq!(line(table2, "Arithmetic f").last().unwrap(), "3.00x");
        assert_eq!(
            line(table2, "Overall"),
            ["Overall", "0.0", "50.0", "0.0", "50.0", "2.00", "0.0", "6.00", "3.00x"]
        );
    }

    #[test]
    fn percent_and_guards() {
        assert!((percent(1, 2) - 50.0).abs() < 1e-9);
        assert!(percent(0, 0).is_nan());
        assert_eq!(pct_cell(f64::NAN), "x");
        assert_eq!(pct_cell(86.99), "87.0");
        assert_eq!(secs_cell(13.829), "13.83");
        assert_eq!(secs_cell(f64::NAN), "x");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = AsciiTable::new(&["Types", "FR/%", "Texec/s"]);
        t.row(vec!["Arithmetic".into(), "84.3".into(), "14.20".into()]);
        t.row(vec!["Control".into(), "89.1".into(), "10.61".into()]);
        let s = t.render();
        assert!(s.contains("Types"));
        assert_eq!(s.lines().count(), 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
