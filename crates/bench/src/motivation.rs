//! The motivation-study experiments: Table 1, Figures 2-4, Table 2
//! (Section 2.3 of the paper).

use sat_trace::{
    app_specs, fetch_breakdown, page_breakdown, pairwise_overlap, zygote_preload_pages, AppProfile,
    Catalog, CodePage, SparsityReport,
};

use crate::render::{pct, Table};

/// Default seed used across the experiment suite.
pub const SEED: u64 = 1;

/// Builds the catalog and the eleven application profiles.
pub fn suite() -> (Catalog, Vec<AppProfile>) {
    let specs = app_specs();
    let catalog = Catalog::generate(SEED, specs.len());
    let profiles = specs
        .iter()
        .enumerate()
        .map(|(i, s)| AppProfile::generate(&catalog, s, i, SEED))
        .collect();
    (catalog, profiles)
}

/// Table 1: % of instruction fetches in user vs kernel space.
pub fn table1() -> String {
    let (_c, profiles) = suite();
    let mut t = Table::new(
        "Table 1: % of instructions fetched (user vs kernel space)",
        &["Benchmark", "User space (%)", "Kernel space (%)"],
    );
    for (name, user, kernel) in sat_trace::analysis::user_kernel_split(&profiles) {
        t.row(vec![name, format!("{user:.1}"), format!("{kernel:.1}")]);
    }
    t.render()
}

/// Figure 2: breakdown of the instruction pages accessed.
pub fn fig2() -> String {
    let (_c, profiles) = suite();
    let mut t = Table::new(
        "Figure 2: breakdown of instruction pages accessed",
        &[
            "Benchmark",
            "total pages",
            "zygote .so",
            "zygote Java",
            "app_process",
            "other libs",
            "private",
        ],
    );
    let rows = page_breakdown(&profiles);
    let mut avg = [0.0f64; 5];
    for (name, counts, shares) in &rows {
        t.row(vec![
            name.clone(),
            counts.iter().sum::<usize>().to_string(),
            pct(shares.zygote_native),
            pct(shares.zygote_java),
            pct(shares.app_process),
            pct(shares.other_libs),
            pct(shares.private),
        ]);
        for (a, s) in avg.iter_mut().zip([
            shares.zygote_native,
            shares.zygote_java,
            shares.app_process,
            shares.other_libs,
            shares.private,
        ]) {
            *a += s / rows.len() as f64;
        }
    }
    t.row(vec![
        "AVERAGE (paper: 35.4/32.4/0.1/24.9/7.2)".into(),
        String::new(),
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2]),
        pct(avg[3]),
        pct(avg[4]),
    ]);
    t.render()
}

/// Figure 3: breakdown of instruction fetches by category.
pub fn fig3() -> String {
    let (_c, profiles) = suite();
    let mut t = Table::new(
        "Figure 3: breakdown of % of instructions fetched (user space)",
        &[
            "Benchmark",
            "zygote .so",
            "zygote Java",
            "app_process",
            "other libs",
            "private",
        ],
    );
    let rows = fetch_breakdown(&profiles);
    let mut shared_avg = 0.0;
    for (name, s) in &rows {
        shared_avg += s.shared() / rows.len() as f64;
        t.row(vec![
            name.clone(),
            pct(s.zygote_native),
            pct(s.zygote_java),
            pct(s.app_process),
            pct(s.other_libs),
            pct(s.private),
        ]);
    }
    t.row(vec![
        format!("AVERAGE shared = {} (paper: 98%)", pct(shared_avg)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t.render()
}

/// Table 2: pairwise intersection of instruction footprints.
pub fn table2() -> String {
    let (_c, profiles) = suite();
    let m = pairwise_overlap(&profiles);
    // The paper prints 4 applications; we print the same 4 plus the
    // suite averages.
    let picks = [
        "Adobe Reader",
        "Android Browser",
        "MX Player",
        "Laya Music Player",
    ];
    let idx: Vec<usize> = picks
        .iter()
        .map(|p| m.names.iter().position(|n| n == p).expect("app present"))
        .collect();
    let mut header: Vec<&str> = vec!["(zygote-preloaded (all shared))"];
    header.extend(picks.iter().copied());
    let mut t = Table::new(
        "Table 2: % of the row app's footprint intersecting the column app's",
        &header,
    );
    for &i in &idx {
        let mut row = vec![m.names[i].clone()];
        for &j in &idx {
            if i == j {
                row.push("-".into());
            } else {
                let (zyg, all) = m.matrix[i][j];
                row.push(format!("{zyg:.1} ({all:.1})"));
            }
        }
        t.row(row);
    }
    let (zyg_avg, all_avg) = m.averages();
    let mut out = t.render();
    out.push_str(&format!(
        "Suite average: zygote-preloaded {zyg_avg:.1}% (paper: 37.9%), all shared {all_avg:.1}% (paper: 45.7%)\n\n",
    ));
    out
}

/// Figure 4: sparsity of zygote-preloaded shared code within 64KB
/// pages, per application and for the union.
pub fn fig4() -> String {
    let (_catalog, profiles) = suite();
    let mut t = Table::new(
        "Figure 4: 4KB pages untouched within each 64KB page (zygote-preloaded shared code)",
        &[
            "Benchmark",
            ">=4 untouched",
            ">=7 untouched",
            ">=10 untouched",
            "4KB MB",
            "64KB MB",
            "blow-up",
        ],
    );
    let mut union: std::collections::BTreeSet<CodePage> = std::collections::BTreeSet::new();
    let mut blowups = Vec::new();
    for p in &profiles {
        let zyg = p.zygote_preloaded_pages();
        union.extend(zyg.iter().copied());
        let r = SparsityReport::from_pages(zyg.iter());
        blowups.push(r.blowup());
        t.row(vec![
            p.spec.name.to_string(),
            pct(r.cdf_at_least(4)),
            pct(r.cdf_at_least(7)),
            pct(r.cdf_at_least(10)),
            format!("{:.1}", r.bytes_4k() as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", r.bytes_64k() as f64 / (1024.0 * 1024.0)),
            format!("{:.2}x", r.blowup()),
        ]);
    }
    let ru = SparsityReport::from_pages(union.iter());
    t.row(vec![
        "UNION (paper: 18MB vs 36MB)".into(),
        pct(ru.cdf_at_least(4)),
        pct(ru.cdf_at_least(7)),
        pct(ru.cdf_at_least(10)),
        format!("{:.1}", ru.bytes_4k() as f64 / (1024.0 * 1024.0)),
        format!("{:.1}", ru.bytes_64k() as f64 / (1024.0 * 1024.0)),
        format!("{:.2}x", ru.blowup()),
    ]);
    let avg_blowup: f64 = blowups.iter().sum::<f64>() / blowups.len() as f64;
    let mut out = t.render();
    out.push_str(&format!(
        "Average per-app 64KB blow-up: {avg_blowup:.2}x (paper: 2.6x)\n\n"
    ));
    out
}

/// Size of the zygote preload set in pages (sanity/reporting helper).
pub fn preload_size(catalog: &Catalog) -> usize {
    zygote_preload_pages(catalog, 5_900).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_motivation_tables_render() {
        for s in [table1(), fig2(), fig3(), table2(), fig4()] {
            assert!(s.len() > 200, "suspiciously short output:\n{s}");
            assert!(s.contains('|'));
        }
    }

    #[test]
    fn motivation_suite_renders() {
        for out in [table1(), fig2(), fig3(), table2(), fig4()] {
            assert!(out.contains('|'), "not a table:\n{out}");
        }
    }

    #[test]
    fn table2_quotes_suite_averages_in_paper_range() {
        let s = table2();
        assert!(s.contains("Suite average"));
    }

    #[test]
    fn preload_set_is_5900ish() {
        let (catalog, _) = suite();
        let n = preload_size(&catalog);
        assert!((5_300..=6_500).contains(&n), "preload {n}");
    }
}
