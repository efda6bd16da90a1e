//! The linked VLIW program: code, initial data images, and symbols.
//!
//! A [`VliwProgram`] is the unit handed from the compiler back-end to the
//! instruction-set simulator. It contains the flat instruction stream
//! (branch targets already resolved to absolute [`InstAddr`]s), the
//! initial contents and layout of both data banks, and a symbol table so
//! tests and harnesses can locate variables after execution.

use crate::insts::{InstAddr, MemOp, VliwInst};
use crate::word::Word;
use crate::Bank;

/// The largest data bank, in words, a program may ask for.
///
/// Every bank a simulator allocates is bounded by this, so a program
/// read from outside the process (a disk-store entry, a binary image)
/// cannot make it allocate without limit. The linker gives each bank
/// 16 384 stack words above its static data, and the largest bank of
/// the 23-benchmark suite (`fft_1024` under Base, 3 072 static words)
/// ends near 19 500 words; generated programs stay far below that.
/// One Mi words (4 MiB a bank) leaves a margin of over 50x, and is 16
/// times the 64 K-word banks a DSP56001's 16-bit addresses reach.
pub const MAX_BANK_WORDS: u32 = 1 << 20;

/// A named code location, kept for disassembly and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Label {
    /// Human-readable name (function or block).
    pub name: String,
    /// Absolute instruction address.
    pub addr: InstAddr,
}

/// Code-range metadata for one compiled function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VliwFunction {
    /// Source-level function name.
    pub name: String,
    /// Address of the first instruction.
    pub start: InstAddr,
    /// Number of instructions.
    pub len: u32,
}

/// A statically allocated datum (scalar or array) in the data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSymbol {
    /// Source-level name.
    pub name: String,
    /// Word address of the first element.
    pub addr: u32,
    /// Size in words (1 for scalars).
    pub size: u32,
    /// The bank holding the primary copy.
    pub home: Bank,
    /// True if a coherent secondary copy lives at the *same address* in the
    /// other bank (partial/full data duplication, paper §3.2).
    pub duplicated: bool,
}

impl DataSymbol {
    /// Banks that hold a copy of this symbol.
    #[must_use]
    pub fn banks(&self) -> Vec<Bank> {
        if self.duplicated {
            vec![self.home, self.home.other()]
        } else {
            vec![self.home]
        }
    }

    /// Words of storage this symbol occupies across both banks.
    #[must_use]
    pub fn storage_words(&self) -> u32 {
        if self.duplicated {
            self.size * 2
        } else {
            self.size
        }
    }
}

/// Initial contents of one data bank.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataImage {
    /// Initial words, starting at address 0. Addresses beyond the image
    /// start as zero.
    pub init: Vec<Word>,
}

impl DataImage {
    /// Ensure the image covers `addr`, zero-filling, then set the word.
    pub fn poke(&mut self, addr: u32, value: Word) {
        let idx = addr as usize;
        if self.init.len() <= idx {
            self.init.resize(idx + 1, Word::ZERO);
        }
        self.init[idx] = value;
    }
}

/// A fully linked program for the dual-bank VLIW DSP.
#[derive(Debug, Clone, PartialEq)]
pub struct VliwProgram {
    /// The instruction stream; one instruction per cycle.
    pub insts: Vec<VliwInst>,
    /// Address of the first instruction to execute.
    pub entry: InstAddr,
    /// Initial image of bank X.
    pub x_image: DataImage,
    /// Initial image of bank Y.
    pub y_image: DataImage,
    /// Static data words allocated in bank X (excludes stack).
    pub x_static_words: u32,
    /// Static data words allocated in bank Y (excludes stack).
    pub y_static_words: u32,
    /// First stack word in bank X (stacks grow upward from here).
    pub x_stack_base: u32,
    /// First stack word in bank Y.
    pub y_stack_base: u32,
    /// Stack budget per bank, in words (the paper's `S`; it is counted
    /// twice in the cost model because both banks carry a stack).
    pub stack_words: u32,
    /// Data symbols for result inspection.
    pub symbols: Vec<DataSymbol>,
    /// Function ranges, for disassembly and profiling reports.
    pub functions: Vec<VliwFunction>,
    /// Named code labels, for disassembly.
    pub labels: Vec<Label>,
}

impl VliwProgram {
    /// Number of VLIW instructions (the paper's `I` memory-cost term,
    /// assuming instructions are the same size as data words).
    #[must_use]
    pub fn inst_count(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Look up a data symbol by name.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<&DataSymbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Total memory cost in words: `Cost = X + Y + 2·S + I`
    /// (paper §4.2 first-order cost model).
    #[must_use]
    pub fn memory_cost(&self) -> u64 {
        u64::from(self.x_static_words)
            + u64::from(self.y_static_words)
            + 2 * u64::from(self.stack_words)
            + u64::from(self.inst_count())
    }

    /// Check that every store to a *duplicated* symbol updates both
    /// copies in the same instruction — the interrupt-safety property
    /// of §3.2: an interrupt between the two copy updates could observe
    /// (or update) incoherent data.
    ///
    /// Returns the instruction addresses of stores whose twin is *not*
    /// in the same instruction. An empty vector means every duplicated
    /// store is atomic.
    #[must_use]
    pub fn dup_store_violations(&self) -> Vec<u32> {
        let dup_ranges: Vec<(u32, u32)> = self
            .symbols
            .iter()
            .filter(|s| s.duplicated)
            .map(|s| (s.addr, s.addr + s.size))
            .collect();
        let static_base = |addr: &crate::insts::MemAddr| -> Option<i64> {
            match addr {
                crate::insts::MemAddr::Absolute(a) => Some(i64::from(*a)),
                crate::insts::MemAddr::AbsIndex { addr, .. } => Some(i64::from(*addr)),
                _ => None,
            }
        };
        let targets_dup = |op: &MemOp| -> bool {
            if let MemOp::Store { addr, .. } = op {
                if let Some(base) = static_base(addr) {
                    return dup_ranges
                        .iter()
                        .any(|&(lo, hi)| base >= i64::from(lo) && base < i64::from(hi));
                }
            }
            false
        };
        let mut violations = Vec::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            for (mine, twin) in [(&inst.mu0, &inst.mu1), (&inst.mu1, &inst.mu0)] {
                let Some(op) = mine else { continue };
                if !targets_dup(op) {
                    continue;
                }
                let twinned = matches!(
                    (op, twin),
                    (
                        MemOp::Store { src: s0, addr: a0, .. },
                        Some(MemOp::Store { src: s1, addr: a1, .. }),
                    ) if s0 == s1 && a0 == a1
                );
                if !twinned {
                    violations.push(pc as u32);
                }
            }
        }
        violations.dedup();
        violations
    }

    /// Render a human-readable disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            let pc = pc as u32;
            for label in self.labels.iter().filter(|l| l.addr.0 == pc) {
                let _ = writeln!(out, "{}:", label.name);
            }
            let _ = writeln!(out, "  {pc:5}  {inst}");
        }
        out
    }

    /// Words of data memory in `bank`: everything below the end of its
    /// stack.
    ///
    /// # Errors
    ///
    /// Returns a description when the stack's end overflows `u32` or
    /// the bank would exceed [`MAX_BANK_WORDS`].
    pub fn bank_words(&self, bank: Bank) -> Result<u32, String> {
        let base = match bank {
            Bank::X => self.x_stack_base,
            Bank::Y => self.y_stack_base,
        };
        let words = base.checked_add(self.stack_words).ok_or_else(|| {
            format!(
                "bank {bank}: stack base {base} + {} words overflows",
                self.stack_words
            )
        })?;
        if words > MAX_BANK_WORDS {
            return Err(format!(
                "bank {bank}: {words} words exceed the limit of {MAX_BANK_WORDS}"
            ));
        }
        Ok(words)
    }

    /// Check structural invariants: bank discipline in every instruction
    /// (unless `dual_ported`), entry in range, branch targets in range,
    /// and a data layout that fits its banks — each bank within
    /// [`MAX_BANK_WORDS`], each initial image and each copy of every
    /// symbol inside its bank.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, dual_ported: bool) -> Result<(), String> {
        let x_words = self.bank_words(Bank::X)?;
        let y_words = self.bank_words(Bank::Y)?;
        let words = |bank| match bank {
            Bank::X => x_words,
            Bank::Y => y_words,
        };
        for (bank, image) in [(Bank::X, &self.x_image), (Bank::Y, &self.y_image)] {
            if image.init.len() > words(bank) as usize {
                return Err(format!(
                    "bank {bank}: initial image of {} words exceeds the bank's {}",
                    image.init.len(),
                    words(bank)
                ));
            }
        }
        for s in &self.symbols {
            for bank in s.banks() {
                if s.addr
                    .checked_add(s.size)
                    .is_none_or(|end| end > words(bank))
                {
                    return Err(format!(
                        "symbol {} at {} (+{} words) lies outside bank {bank} ({} words)",
                        s.name,
                        s.addr,
                        s.size,
                        words(bank)
                    ));
                }
            }
        }
        let n = self.insts.len() as u32;
        if self.entry.0 >= n {
            return Err(format!("entry {} out of range ({n} insts)", self.entry));
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            inst.check_bank_discipline(dual_ported)
                .map_err(|e| format!("inst {pc}: {e}"))?;
            if let Some(op) = &inst.pcu {
                use crate::insts::PcuOp;
                let target = match op {
                    PcuOp::Jump(t) | PcuOp::Call(t) => Some(*t),
                    PcuOp::BranchNz { target, .. } | PcuOp::BranchZ { target, .. } => Some(*target),
                    PcuOp::Ret | PcuOp::Halt => None,
                };
                if let Some(t) = target {
                    if t.0 >= n {
                        return Err(format!("inst {pc}: target {t} out of range ({n} insts)"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insts::{InstAddr, PcuOp};

    fn tiny_program() -> VliwProgram {
        let mut halt = VliwInst::new();
        halt.pcu = Some(PcuOp::Halt);
        VliwProgram {
            insts: vec![VliwInst::new(), halt],
            entry: InstAddr(0),
            x_image: DataImage::default(),
            y_image: DataImage::default(),
            x_static_words: 10,
            y_static_words: 6,
            x_stack_base: 100,
            y_stack_base: 100,
            stack_words: 32,
            symbols: vec![DataSymbol {
                name: "a".into(),
                addr: 0,
                size: 10,
                home: Bank::X,
                duplicated: false,
            }],
            functions: vec![VliwFunction {
                name: "main".into(),
                start: InstAddr(0),
                len: 2,
            }],
            labels: vec![Label {
                name: "main".into(),
                addr: InstAddr(0),
            }],
        }
    }

    #[test]
    fn cost_model_matches_paper_formula() {
        let p = tiny_program();
        // X + Y + 2S + I = 10 + 6 + 64 + 2
        assert_eq!(p.memory_cost(), 82);
    }

    #[test]
    fn symbol_lookup() {
        let p = tiny_program();
        assert_eq!(p.symbol("a").unwrap().size, 10);
        assert!(p.symbol("nope").is_none());
    }

    #[test]
    fn duplicated_symbol_occupies_both_banks() {
        let s = DataSymbol {
            name: "sig".into(),
            addr: 4,
            size: 16,
            home: Bank::Y,
            duplicated: true,
        };
        assert_eq!(s.banks(), vec![Bank::Y, Bank::X]);
        assert_eq!(s.storage_words(), 32);
    }

    #[test]
    fn validate_catches_bad_entry_and_targets() {
        let mut p = tiny_program();
        assert!(p.validate(false).is_ok());
        p.entry = InstAddr(99);
        assert!(p.validate(false).is_err());

        let mut p = tiny_program();
        p.insts[0].pcu = Some(PcuOp::Jump(InstAddr(42)));
        assert!(p.validate(false).is_err());
    }

    #[test]
    fn validate_rejects_layouts_outside_their_banks() {
        let mut p = tiny_program();
        p.stack_words = u32::MAX;
        assert!(p.validate(false).unwrap_err().contains("overflows"));

        let mut p = tiny_program();
        p.y_stack_base = MAX_BANK_WORDS;
        assert!(p.validate(false).unwrap_err().contains("limit"));

        let mut p = tiny_program();
        p.x_image.init = vec![Word::ZERO; 133];
        assert!(p.validate(false).unwrap_err().contains("initial image"));
        p.x_image.init.pop();
        assert!(p.validate(false).is_ok(), "an image may fill its bank");

        let mut p = tiny_program();
        p.symbols[0].addr = u32::MAX;
        assert!(p.validate(false).unwrap_err().contains("outside bank X"));

        // A duplicated symbol must fit the other bank too.
        let mut p = tiny_program();
        p.y_stack_base = 0;
        p.stack_words = 8;
        p.x_stack_base = 100;
        assert!(p.validate(false).is_ok());
        p.symbols[0].duplicated = true;
        assert!(p.validate(false).unwrap_err().contains("outside bank Y"));
    }

    #[test]
    fn poke_extends_image() {
        let mut img = DataImage::default();
        img.poke(3, Word::from_i32(7));
        assert_eq!(img.init.len(), 4);
        assert_eq!(img.init[3].as_i32(), 7);
        assert_eq!(img.init[0], Word::ZERO);
    }

    #[test]
    fn disassembly_contains_labels_and_insts() {
        let p = tiny_program();
        let d = p.disassemble();
        assert!(d.contains("main:"));
        assert!(d.contains("halt"));
    }
}
