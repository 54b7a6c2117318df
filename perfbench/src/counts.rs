//! Deterministic work counts, kept per unit seed across benchmark runs
//! of the same build: two runs of the same code that disagree on any
//! count fail the benchmark.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// The counts one build has reported, keyed by (unit seed, count name).
#[derive(Debug, Default)]
pub struct Ledger {
    path: PathBuf,
    known: BTreeMap<(u64, String), u64>,
    mismatches: Vec<String>,
}

impl Ledger {
    /// Loads the ledger at `path`, or starts an empty one.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut known = BTreeMap::new();
        if path.exists() {
            for line in io::BufReader::new(std::fs::File::open(path)?).lines() {
                let line = line?;
                let mut f = line.split('\t');
                let (Some(seed), Some(name), Some(value), None) =
                    (f.next(), f.next(), f.next(), f.next())
                else {
                    return Err(io::Error::other(format!("malformed ledger line {line:?}")));
                };
                let parse = |s: &str| {
                    s.parse::<u64>()
                        .map_err(|e| io::Error::other(format!("ledger line {line:?}: {e}")))
                };
                known.insert((parse(seed)?, name.to_string()), parse(value)?);
            }
        }
        Ok(Self {
            path: path.to_path_buf(),
            known,
            mismatches: Vec::new(),
        })
    }

    /// Records `name = value` for unit `seed`, noting a mismatch when an
    /// earlier run recorded a different value.
    pub fn record(&mut self, seed: u64, name: &str, value: u64) {
        match self.known.get(&(seed, name.to_string())) {
            Some(&old) if old != value => self.mismatches.push(format!(
                "seed {seed}: {name} = {value}, an earlier run of this build counted {old}"
            )),
            Some(_) => {}
            None => {
                self.known.insert((seed, name.to_string()), value);
            }
        }
    }

    /// Every disagreement seen so far.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Writes the ledger back.
    pub fn save(&self) -> io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(&self.path)?);
        for ((seed, name), value) in &self.known {
            writeln!(w, "{seed}\t{name}\t{value}")?;
        }
        w.flush()
    }
}
