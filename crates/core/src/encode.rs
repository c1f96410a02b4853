//! The encoding step — procedure `Encode` of the paper's Figure 2.
//!
//! The encoding is a table with one column per process; the cell in
//! column `p`, row `q` describes what `p` does in its `q`-th metastep:
//! just the step type (`R`/`W`) for non-winners inside write metasteps,
//! the type plus the *signature* (preread, read and write counts) for
//! the winner, `PR`/`SR` for read metasteps (preread / solo read), `C`
//! for critical steps. Crucially the cells name no registers, values or
//! process ids — that information is recomputed by the decoder from the
//! algorithm's transition function — which is what keeps the encoding
//! within O(C(α_π)) bits (Theorem 6.2).
//!
//! [`Encoding::to_bits`] serializes the table with 2–3-bit cell tags and
//! Elias-γ signature counts, making "length in bits" concrete; the
//! counting argument of Theorem 7.5 then reads: n! distinct
//! self-delimiting strings cannot all be shorter than log₂ n! bits.

use exclusion_shmem::ProcessId;

use crate::bits::{BitReader, BitWriter};
use crate::construct::Construction;
use crate::error::DecodeError;
use crate::metastep::MetastepKind;

/// One cell of the encoding table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cell {
    /// A (non-winning) read step inside a write metastep.
    Read,
    /// A non-winning write step inside a write metastep.
    Write,
    /// The winning write, carrying the metastep's signature
    /// `PR|pr|R|r|W|w` (with `w` counting the winner itself).
    Winner {
        /// `|pread(m)|`.
        pr: u32,
        /// `|read(m)|`.
        r: u32,
        /// `|write(m)| + 1`.
        w: u32,
    },
    /// A read metastep that is a preread of some write metastep.
    Preread,
    /// A read metastep that is not a preread ("solo read").
    SoloRead,
    /// A critical metastep.
    Crit,
}

/// The encoded table `E_π`: one column of cells per process.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Encoding {
    columns: Vec<Vec<Cell>>,
}

impl Encoding {
    /// The column of process `p`.
    #[must_use]
    pub fn column(&self, p: ProcessId) -> &[Cell] {
        &self.columns[p.index()]
    }

    /// All columns, indexed by process.
    #[must_use]
    pub fn columns(&self) -> &[Vec<Cell>] {
        &self.columns
    }

    /// Number of processes (columns).
    #[must_use]
    pub fn processes(&self) -> usize {
        self.columns.len()
    }

    /// Total number of cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// Serializes to a self-delimiting bit string; returns the bytes and
    /// the exact bit length `|E_π|`.
    #[must_use]
    pub fn to_bits(&self) -> (Vec<u8>, usize) {
        let mut w = BitWriter::new();
        for col in &self.columns {
            for cell in col {
                match *cell {
                    Cell::Read => w.push_bits(0b00, 2),
                    Cell::Write => w.push_bits(0b010, 3),
                    Cell::Crit => w.push_bits(0b011, 3),
                    Cell::Preread => w.push_bits(0b100, 3),
                    Cell::SoloRead => w.push_bits(0b101, 3),
                    Cell::Winner { pr, r, w: wc } => {
                        w.push_bits(0b110, 3);
                        w.push_gamma(u64::from(pr) + 1);
                        w.push_gamma(u64::from(r) + 1);
                        w.push_gamma(u64::from(wc));
                    }
                }
            }
            w.push_bits(0b111, 3); // column terminator ($ in the paper)
        }
        w.into_parts()
    }

    /// The length `|E_π|` in bits of the serialized encoding.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.to_bits().1
    }

    /// The length a naive fixed-width serialization would need: 3 bits
    /// per cell tag and three 16-bit counts per signature. The E10
    /// ablation compares this against the γ-coded [`bit_len`](Encoding::bit_len)
    /// (Theorem 6.2 needs the counts coded in O(log k) bits — fixed
    /// widths waste a constant factor but keep the same asymptotics as
    /// long as counts fit).
    #[must_use]
    pub fn fixed_width_bit_len(&self) -> usize {
        self.columns
            .iter()
            .map(|col| {
                3 + col
                    .iter()
                    .map(|c| match c {
                        Cell::Winner { .. } => 3 + 3 * 16,
                        _ => 3,
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Parses a bit string produced by [`to_bits`](Encoding::to_bits),
    /// given the number of processes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Malformed`] if the stream is not a valid
    /// serialization for `n` columns.
    pub fn from_bits(bytes: &[u8], bit_len: usize, n: usize) -> Result<Self, DecodeError> {
        let mut r = BitReader::new(bytes, bit_len);
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let mut col = Vec::new();
            loop {
                let cell = if !r.read()? {
                    if !r.read()? {
                        Cell::Read // 00
                    } else {
                        // 01x
                        if r.read()? {
                            Cell::Crit // 011
                        } else {
                            Cell::Write // 010
                        }
                    }
                } else if !r.read()? {
                    // 10x
                    if r.read()? {
                        Cell::SoloRead // 101
                    } else {
                        Cell::Preread // 100
                    }
                } else if !r.read()? {
                    // 110: winner + signature
                    let pr = r.read_gamma()? - 1;
                    let rd = r.read_gamma()? - 1;
                    let wr = r.read_gamma()?;
                    Cell::Winner {
                        pr: u32::try_from(pr)
                            .map_err(|_| DecodeError::Malformed { bit: r.position() })?,
                        r: u32::try_from(rd)
                            .map_err(|_| DecodeError::Malformed { bit: r.position() })?,
                        w: u32::try_from(wr)
                            .map_err(|_| DecodeError::Malformed { bit: r.position() })?,
                    }
                } else {
                    break; // 111: end of column
                };
                col.push(cell);
            }
            columns.push(col);
        }
        if !r.at_end() {
            return Err(DecodeError::Malformed { bit: r.position() });
        }
        Ok(Encoding { columns })
    }
}

/// Runs `Encode(M, ≼)` (Figure 2): builds the cell table of a
/// construction.
///
/// # Example
///
/// ```
/// use exclusion_lb::{construct, encode, ConstructConfig, Permutation};
/// use exclusion_mutex::DekkerTournament;
///
/// let alg = DekkerTournament::new(3);
/// let pi = Permutation::identity(3);
/// let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
/// let e = encode(&c);
/// // Theorem 6.2: the encoding is short — O(C) bits.
/// assert!(e.bit_len() <= 8 * c.cost());
/// ```
#[must_use]
pub fn encode(c: &Construction) -> Encoding {
    let columns = (0..c.processes())
        .map(|p| {
            let p = ProcessId::new(p);
            c.chain(p)
                .iter()
                .map(|&mid| {
                    let m = c.metastep(mid);
                    match m.kind() {
                        MetastepKind::Crit => Cell::Crit,
                        MetastepKind::Read => {
                            if m.preread_of().is_some() {
                                Cell::Preread
                            } else {
                                Cell::SoloRead
                            }
                        }
                        MetastepKind::Write => {
                            let winner = m.winner().expect("write metastep has a winner");
                            if winner.pid() == p {
                                Cell::Winner {
                                    pr: m.pread().len() as u32,
                                    r: m.reads().len() as u32,
                                    w: m.writes().len() as u32 + 1,
                                }
                            } else if m.step_of(p).expect("p owns a step").step_type()
                                == exclusion_shmem::StepType::Write
                            {
                                Cell::Write
                            } else {
                                Cell::Read
                            }
                        }
                    }
                })
                .collect()
        })
        .collect();
    Encoding { columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, ConstructConfig};
    use crate::perm::Permutation;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament};
    use exclusion_shmem::Automaton;
    use exclusion_shmem::DynRef;

    fn build_encoding(n: usize, rank: u64) -> (Construction, Encoding) {
        let alg = DekkerTournament::new(n);
        let pi = Permutation::unrank(n, rank);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let e = encode(&c);
        (c, e)
    }

    #[test]
    fn one_cell_per_chain_entry() {
        let (c, e) = build_encoding(4, 9);
        for p in ProcessId::all(4) {
            assert_eq!(e.column(p).len(), c.chain(p).len());
        }
    }

    #[test]
    fn signature_counts_match_metasteps() {
        let alg = Bakery::new(4);
        let pi = Permutation::reversed(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let e = encode(&c);
        for p in ProcessId::all(4) {
            for (cell, &mid) in e.column(p).iter().zip(c.chain(p)) {
                if let Cell::Winner { pr, r, w } = cell {
                    let m = c.metastep(mid);
                    assert_eq!(*pr as usize, m.pread().len());
                    assert_eq!(*r as usize, m.reads().len());
                    assert_eq!(*w as usize, m.writes().len() + 1);
                }
            }
        }
    }

    #[test]
    fn bit_roundtrip_preserves_cells() {
        let (_, e) = build_encoding(5, 60);
        let (bytes, len) = e.to_bits();
        let back = Encoding::from_bits(&bytes, len, 5).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn bit_roundtrip_for_whole_suite() {
        for r in AlgorithmRegistry::global().instantiate(4, AlgorithmInfo::register_only) {
            let alg = DynRef(r.automaton.as_ref());
            let pi = Permutation::unrank(4, 19);
            let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
            let e = encode(&c);
            let (bytes, len) = e.to_bits();
            let back = Encoding::from_bits(&bytes, len, 4).unwrap();
            assert_eq!(e, back, "{}", alg.name());
        }
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let (_, e) = build_encoding(3, 3);
        let (bytes, len) = e.to_bits();
        assert!(Encoding::from_bits(&bytes, len - 1, 3).is_err());
        assert!(Encoding::from_bits(&bytes, len, 4).is_err());
    }

    #[test]
    fn encoding_length_is_linear_in_cost() {
        // Theorem 6.2 with an explicit constant: each unit of cost
        // contributes at most ~8 bits with our tags (3-bit tag + γ
        // codes amortized against the steps they count), plus 16 bits
        // per process for the cost-free critical cells and terminator.
        for r in AlgorithmRegistry::global().instantiate(5, AlgorithmInfo::register_only) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 50, 100] {
                let pi = Permutation::unrank(5, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
                let e = encode(&c);
                assert!(
                    e.bit_len() <= 8 * c.cost() + 16 * 5,
                    "{}: {} bits for cost {}",
                    alg.name(),
                    e.bit_len(),
                    c.cost()
                );
            }
        }
    }

    #[test]
    fn distinct_permutations_give_distinct_encodings() {
        use std::collections::HashSet;
        let alg = DekkerTournament::new(4);
        let mut seen = HashSet::new();
        for pi in Permutation::all(4) {
            let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
            let e = encode(&c);
            assert!(seen.insert(e.to_bits()), "collision at π = {pi}");
        }
        assert_eq!(seen.len(), 24);
    }
}
