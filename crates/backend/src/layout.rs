//! Static data layout and stack-frame layout.
//!
//! Globals are placed in their allocated banks; duplicated globals are
//! placed *first*, at the same address in both banks, so a single base
//! address serves either copy (paper §3.2: "To avoid fragmenting
//! memory, we first allocate duplicated variables to both banks before
//! other variables"). Each function's frame has a per-bank region:
//! callee-saved register slots (alternating banks), then local arrays
//! (in their allocated banks), then spill slots (alternating banks).

use dsp_bankalloc::BankAllocation;
use dsp_ir::{FuncId, GlobalId, Program};
use dsp_machine::{Bank, DataImage, DataSymbol};

/// Default stack budget per bank, in words.
pub const STACK_WORDS: u32 = 16_384;

/// Placement of every global plus the initial bank images.
#[derive(Debug, Clone)]
pub struct DataLayout {
    /// Word address of each global (in its home bank — and, if
    /// duplicated, at the same address in the other bank).
    pub global_addr: Vec<u32>,
    /// Static data words in bank X.
    pub x_static: u32,
    /// Static data words in bank Y.
    pub y_static: u32,
    /// Initial image of bank X.
    pub x_image: DataImage,
    /// Initial image of bank Y.
    pub y_image: DataImage,
    /// Symbol table for the linked program.
    pub symbols: Vec<DataSymbol>,
}

impl DataLayout {
    /// Compute the layout of `program` under `alloc`.
    #[must_use]
    pub fn compute(program: &Program, alloc: &BankAllocation) -> DataLayout {
        let mut global_addr = vec![0u32; program.globals.len()];
        let mut x_cursor = 0u32;
        let mut y_cursor = 0u32;
        let mut x_image = DataImage::default();
        let mut y_image = DataImage::default();
        let mut symbols = Vec::new();

        let place = |gi: usize,
                     x_cursor: &mut u32,
                     y_cursor: &mut u32,
                     x_image: &mut DataImage,
                     y_image: &mut DataImage,
                     symbols: &mut Vec<DataSymbol>,
                     global_addr: &mut Vec<u32>| {
            let g = &program.globals[gi];
            let id = GlobalId(gi as u32);
            let dup = alloc.is_duplicated_global(id);
            let home = alloc.bank_of_global(id);
            let addr = if dup {
                // Synchronize the cursors so both copies share an address.
                let a = (*x_cursor).max(*y_cursor);
                *x_cursor = a + g.size;
                *y_cursor = a + g.size;
                a
            } else {
                match home {
                    Bank::X => {
                        let a = *x_cursor;
                        *x_cursor += g.size;
                        a
                    }
                    Bank::Y => {
                        let a = *y_cursor;
                        *y_cursor += g.size;
                        a
                    }
                }
            };
            global_addr[gi] = addr;
            for (k, w) in g.init.iter().enumerate() {
                if dup || home == Bank::X {
                    x_image.poke(addr + k as u32, *w);
                }
                if dup || home == Bank::Y {
                    y_image.poke(addr + k as u32, *w);
                }
            }
            // Zero-extend images over the whole object so symbol reads
            // are always in range.
            let end = (addr + g.size) as usize;
            if (dup || home == Bank::X) && x_image.init.len() < end {
                x_image.init.resize(end, dsp_machine::Word::ZERO);
            }
            if (dup || home == Bank::Y) && y_image.init.len() < end {
                y_image.init.resize(end, dsp_machine::Word::ZERO);
            }
            symbols.push(DataSymbol {
                name: g.name.clone(),
                addr,
                size: g.size,
                home,
                duplicated: dup,
            });
        };

        // Duplicated first, then the rest.
        for gi in 0..program.globals.len() {
            if alloc.is_duplicated_global(GlobalId(gi as u32)) {
                place(
                    gi,
                    &mut x_cursor,
                    &mut y_cursor,
                    &mut x_image,
                    &mut y_image,
                    &mut symbols,
                    &mut global_addr,
                );
            }
        }
        for gi in 0..program.globals.len() {
            if !alloc.is_duplicated_global(GlobalId(gi as u32)) {
                place(
                    gi,
                    &mut x_cursor,
                    &mut y_cursor,
                    &mut x_image,
                    &mut y_image,
                    &mut symbols,
                    &mut global_addr,
                );
            }
        }

        DataLayout {
            global_addr,
            x_static: x_cursor,
            y_static: y_cursor,
            x_image,
            y_image,
            symbols,
        }
    }

    /// Stack base of each bank (stacks sit right after static data; both
    /// stacks start at the same address so the cost model's single `S`
    /// term applies).
    #[must_use]
    pub fn stack_bases(&self) -> (u32, u32) {
        let base = self.x_static.max(self.y_static);
        (base, base)
    }
}

/// Frame layout of one function: everything is addressed relative to
/// the frame base (the stack pointer value at entry).
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    /// Offset of each local array within its bank's frame region,
    /// indexed by `LocalId`; the bank comes with it.
    pub local_off: Vec<(Bank, u32)>,
    /// Save-area slots: one `(bank, offset)` per callee-saved register,
    /// alternating banks in save order.
    pub save_off: Vec<(Bank, u32)>,
    /// Spill-slot placements, indexed by spill-slot number.
    pub spill_off: Vec<(Bank, u32)>,
    /// Frame words in bank X.
    pub frame_x: u32,
    /// Frame words in bank Y.
    pub frame_y: u32,
}

impl FrameLayout {
    /// Build a frame for `func`: `save_count` callee-saved registers,
    /// local arrays placed per `alloc`, `spill_slots` spill slots.
    #[must_use]
    pub fn compute(
        program: &Program,
        alloc: &BankAllocation,
        func: FuncId,
        save_count: usize,
        spill_slots: u32,
    ) -> FrameLayout {
        let f = program.func(func);
        let mut x = 0u32;
        let mut y = 0u32;
        let mut save_off = Vec::with_capacity(save_count);
        for i in 0..save_count {
            // Alternating banks (paper §3.1).
            if i % 2 == 0 {
                save_off.push((Bank::X, x));
                x += 1;
            } else {
                save_off.push((Bank::Y, y));
                y += 1;
            }
        }
        let mut local_off = Vec::with_capacity(f.locals.len());
        for (li, l) in f.locals.iter().enumerate() {
            let bank = alloc.bank_of_base(func, dsp_ir::MemBase::Local(dsp_ir::LocalId(li as u32)));
            match bank {
                Bank::X => {
                    local_off.push((Bank::X, x));
                    x += l.size;
                }
                Bank::Y => {
                    local_off.push((Bank::Y, y));
                    y += l.size;
                }
            }
        }
        let mut spill_off = Vec::with_capacity(spill_slots as usize);
        for s in 0..spill_slots {
            if s % 2 == 0 {
                spill_off.push((Bank::X, x));
                x += 1;
            } else {
                spill_off.push((Bank::Y, y));
                y += 1;
            }
        }
        FrameLayout {
            local_off,
            save_off,
            spill_off,
            frame_x: x,
            frame_y: y,
        }
    }

    /// Frame size in the given bank.
    #[must_use]
    pub fn frame_words(&self, bank: Bank) -> u32 {
        match bank {
            Bank::X => self.frame_x,
            Bank::Y => self.frame_y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_bankalloc::{AllocOptions, DuplicationMode};
    use dsp_frontend::compile_str;

    #[test]
    fn partitioned_globals_get_disjoint_banks_and_packed_addresses() {
        let src = "float A[8]; float B[8]; float out;
                   void main() {
                     int i; float acc; acc = 0.0;
                     for (i = 0; i < 8; i++) acc += A[i] * B[i];
                     out = acc;
                   }";
        let p = compile_str(src).unwrap();
        let alloc = BankAllocation::compute(
            &p,
            &dsp_bankalloc::trial_conflicts(&p),
            &AllocOptions::default(),
            None,
        );
        let layout = DataLayout::compute(&p, &alloc);
        let a = p.global_by_name("A").unwrap();
        let b = p.global_by_name("B").unwrap();
        assert_ne!(alloc.bank_of_global(a), alloc.bank_of_global(b));
        // Each bank is packed from 0 upward.
        assert!(layout.global_addr[a.index()] < 16);
        assert!(layout.global_addr[b.index()] < 16);
        assert_eq!(layout.symbols.len(), 3);
    }

    #[test]
    fn duplicated_globals_share_address_in_both_banks() {
        let src = "float s[16]; float R[8]; float q[4];
                   void main() {
                     int n;
                     for (n = 0; n < 8; n++) R[n] += s[n] * s[n + 2];
                     q[0] = R[0];
                   }";
        let p = compile_str(src).unwrap();
        let opts = AllocOptions {
            duplication: DuplicationMode::Partial,
            ..AllocOptions::default()
        };
        let alloc = BankAllocation::compute(&p, &dsp_bankalloc::trial_conflicts(&p), &opts, None);
        let layout = DataLayout::compute(&p, &alloc);
        let s = p.global_by_name("s").unwrap();
        assert!(alloc.is_duplicated_global(s));
        // The duplicated array comes first: address 0 in both banks.
        assert_eq!(layout.global_addr[s.index()], 0);
        let sym = layout.symbols.iter().find(|x| x.name == "s").unwrap();
        assert!(sym.duplicated);
        // Static sizes include the copy.
        assert!(layout.x_static >= 16);
        assert!(layout.y_static >= 16);
    }

    #[test]
    fn initializers_land_in_the_right_images() {
        let src = "int A[2] = {7, 8}; int B[2] = {9, 10}; int out;
                   void main() { out = A[0] + B[0]; }";
        let p = compile_str(src).unwrap();
        let alloc = BankAllocation::compute(
            &p,
            &dsp_bankalloc::trial_conflicts(&p),
            &AllocOptions::default(),
            None,
        );
        let layout = DataLayout::compute(&p, &alloc);
        let a = p.global_by_name("A").unwrap();
        let addr = layout.global_addr[a.index()];
        let img = match alloc.bank_of_global(a) {
            Bank::X => &layout.x_image,
            Bank::Y => &layout.y_image,
        };
        assert_eq!(img.init[addr as usize].as_i32(), 7);
        assert_eq!(img.init[addr as usize + 1].as_i32(), 8);
    }

    #[test]
    fn frame_alternates_save_banks() {
        let src = "void main() { int x; x = 1; }";
        let p = compile_str(src).unwrap();
        let alloc = BankAllocation::all_in_x(&p);
        let frame = FrameLayout::compute(&p, &alloc, p.main.unwrap(), 5, 0);
        let banks: Vec<Bank> = frame.save_off.iter().map(|(b, _)| *b).collect();
        assert_eq!(banks, vec![Bank::X, Bank::Y, Bank::X, Bank::Y, Bank::X]);
        assert_eq!(frame.frame_x, 3);
        assert_eq!(frame.frame_y, 2);
    }

    #[test]
    fn locals_follow_their_banks_and_spills_alternate() {
        let src = "void f(int t[]) { t[0] = 1; }
                   void main() { int a[4]; int b[4]; a[0] = 1; b[0] = a[0]; f(a); }";
        let p = compile_str(src).unwrap();
        let alloc = BankAllocation::all_in_x(&p);
        let frame = FrameLayout::compute(&p, &alloc, p.main.unwrap(), 2, 3);
        // Saves: X, Y. Locals (both X under all_in_x): offsets 1, 5.
        assert_eq!(frame.local_off, vec![(Bank::X, 1), (Bank::X, 5)]);
        // Spills alternate starting at X.
        assert_eq!(frame.spill_off[0].0, Bank::X);
        assert_eq!(frame.spill_off[1].0, Bank::Y);
        assert_eq!(frame.spill_off[2].0, Bank::X);
        assert_eq!(frame.frame_words(Bank::X), 1 + 8 + 2);
        assert_eq!(frame.frame_words(Bank::Y), 1 + 1);
    }
}
