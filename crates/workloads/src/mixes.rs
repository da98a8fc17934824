//! The multiprogrammed workloads of Table 2: Mix1–Mix10.
//!
//! Each mix runs four benchmarks, one per core, following the paper's
//! recipe: Mix1/Mix2 from the low-overhead group, Mix3/Mix4 from the high
//! group, Mix5/Mix6/Mix7/Mix8 duplicated programs, Mix9/Mix10 drawn from
//! both groups.

use crate::profile::BenchmarkProfile;
use crate::spec;

/// A named four-program workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// Mix name ("Mix1" .. "Mix10").
    pub name: &'static str,
    /// The four per-core benchmark profiles.
    pub programs: Vec<BenchmarkProfile>,
}

/// All ten mixes of Table 2, in order.
pub fn all() -> Vec<Mix> {
    vec![
        Mix {
            name: "Mix1",
            programs: vec![
                spec::povray(),
                spec::sjeng(),
                spec::gemsfdtd(),
                spec::h264ref(),
            ],
        },
        Mix {
            name: "Mix2",
            programs: vec![spec::bzip2(), spec::tonto(), spec::omnetpp(), spec::astar()],
        },
        Mix {
            name: "Mix3",
            programs: vec![spec::gcc(), spec::bwaves(), spec::mcf(), spec::gromacs()],
        },
        Mix {
            name: "Mix4",
            programs: vec![spec::libquantum(), spec::lbm(), spec::wrf(), spec::namd()],
        },
        Mix {
            name: "Mix5",
            programs: vec![spec::povray(), spec::povray(), spec::sjeng(), spec::sjeng()],
        },
        Mix {
            name: "Mix6",
            programs: vec![spec::namd(), spec::namd(), spec::gromacs(), spec::gromacs()],
        },
        Mix {
            name: "Mix7",
            programs: vec![
                spec::bwaves(),
                spec::bwaves(),
                spec::bwaves(),
                spec::bwaves(),
            ],
        },
        Mix {
            name: "Mix8",
            programs: vec![
                spec::h264ref(),
                spec::h264ref(),
                spec::h264ref(),
                spec::h264ref(),
            ],
        },
        Mix {
            name: "Mix9",
            programs: vec![
                spec::calculix(),
                spec::h264ref(),
                spec::mcf(),
                spec::sjeng(),
            ],
        },
        Mix {
            name: "Mix10",
            programs: vec![
                spec::bzip2(),
                spec::povray(),
                spec::libquantum(),
                spec::libquantum(),
            ],
        },
    ]
}

/// Looks up a mix by name (case-sensitive, e.g. `"Mix3"`).
pub fn by_name(name: &str) -> Option<Mix> {
    all().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_mixes_of_four() {
        let mixes = all();
        assert_eq!(mixes.len(), 10);
        for m in &mixes {
            assert_eq!(m.programs.len(), 4, "{}", m.name);
            for p in &m.programs {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn group_recipe_matches_table_2() {
        let mixes = all();
        // Mix1/Mix2: all low-overhead; Mix3/Mix4: all high-overhead.
        assert!(mixes[0].programs.iter().all(|p| !p.is_high_overhead()));
        assert!(mixes[1].programs.iter().all(|p| !p.is_high_overhead()));
        assert!(mixes[2].programs.iter().all(|p| p.is_high_overhead()));
        assert!(mixes[3].programs.iter().all(|p| p.is_high_overhead()));
        // Mix7/Mix8: four copies of one program.
        for idx in [6usize, 7] {
            let names: std::collections::HashSet<_> =
                mixes[idx].programs.iter().map(|p| p.name).collect();
            assert_eq!(names.len(), 1, "{}", mixes[idx].name);
        }
        // Mix9/Mix10 draw from both groups.
        for idx in [8usize, 9] {
            let hi = mixes[idx]
                .programs
                .iter()
                .filter(|p| p.is_high_overhead())
                .count();
            assert!(hi > 0 && hi < 4, "{}", mixes[idx].name);
        }
    }

    #[test]
    fn high_mixes_are_more_intense() {
        // Mean LLC-miss gap across a mix's four programs, nanoseconds.
        let mean_gap_ns = |m: &Mix| {
            m.programs.iter().map(|p| p.avg_gap_ns).sum::<f64>() / m.programs.len() as f64
        };
        let mixes = all();
        assert!(mean_gap_ns(&mixes[2]) < mean_gap_ns(&mixes[0]));
        assert!(mean_gap_ns(&mixes[3]) < mean_gap_ns(&mixes[1]));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("Mix7").unwrap().name, "Mix7");
        assert!(by_name("Mix11").is_none());
    }
}
