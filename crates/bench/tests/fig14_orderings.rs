//! Pins the orderings of Fig. 14 (marginal TREFP per virus family,
//! temperature and safety criterion) at quick scale with the figure
//! binaries' campaign seed. The margins come from full virus runs through
//! the plan path, so a change in the plan build or the window kernel that
//! alters any outcome shows up here as a broken ordering.

use dstress::experiments::fig14::{self, Fig14Report, VirusFamily};
use dstress::usecases::SafetyCriterion;
use dstress::ExperimentScale;

const TEMPS: [f64; 3] = [50.0, 60.0, 70.0];
const FAMILIES: [VirusFamily; 3] = [
    VirusFamily::Word64,
    VirusFamily::RowTriple,
    VirusFamily::RowAccess,
];
const CRITERIA: [SafetyCriterion; 2] =
    [SafetyCriterion::NoErrors, SafetyCriterion::NoUncorrectable];

fn margin(report: &Fig14Report, family: VirusFamily, temp: f64, criterion: SafetyCriterion) -> f64 {
    report
        .margin(family, temp, criterion)
        .unwrap_or_else(|| panic!("no {family:?} margin at {temp} C for {criterion:?}"))
}

#[test]
fn fig14_margin_orderings_hold_at_quick_scale() {
    let report = fig14::run(ExperimentScale::quick(), dstress_bench::CAMPAIGN_SEED)
        .expect("Fig. 14 runs at quick scale");
    println!("{}", report.render());

    // (a) Hotter DIMMs never allow a longer refresh period, and 70 C allows
    // a strictly shorter one than 50 C.
    for family in FAMILIES {
        for criterion in CRITERIA {
            let [m50, m60, m70] = TEMPS.map(|t| margin(&report, family, t, criterion));
            assert!(
                m50 >= m60 && m60 >= m70,
                "{family:?} {criterion:?}: margins {m50} / {m60} / {m70} s increase with temperature"
            );
            assert!(
                m70 < m50,
                "{family:?} {criterion:?}: 70 C margin {m70} s is not below 50 C {m50} s"
            );
        }
    }

    for temp in TEMPS {
        // (b) The access virus finds the most pessimistic no-error margin.
        let access = margin(
            &report,
            VirusFamily::RowAccess,
            temp,
            SafetyCriterion::NoErrors,
        );
        let smallest = FAMILIES
            .map(|f| margin(&report, f, temp, SafetyCriterion::NoErrors))
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            access.to_bits(),
            smallest.to_bits(),
            "{temp} C: access-virus no-error margin {access} s is not the minimum {smallest} s"
        );
        // (c) Tolerating single-bit errors never shortens the margin.
        for family in FAMILIES {
            let no_errors = margin(&report, family, temp, SafetyCriterion::NoErrors);
            let ue_only = margin(&report, family, temp, SafetyCriterion::NoUncorrectable);
            assert!(
                ue_only >= no_errors,
                "{family:?} {temp} C: UE-only margin {ue_only} s below no-error margin {no_errors} s"
            );
        }
    }
}
