//! Word values stored in the simulated memory.
//!
//! A `Word` plays two roles, as in a real interpreter's address space:
//!
//! * **Ruby values** visible to programs: `Nil`, `True`, `False`,
//!   immediate `Int`s (CRuby Fixnums), `Sym`bols, and `Obj` references to
//!   heap slots. CRuby 1.9 has no immediate floats — `Float`s are heap
//!   objects, which is why numeric code allocates furiously and why the
//!   paper found most read-set conflicts at the object allocator.
//! * **Payload words** inside objects: slot headers, raw `F64` float
//!   payloads, `Str` string content, and free-list links, all of which
//!   occupy simulated cache lines like any other data.

use std::rc::Rc;

use crate::symbols::SymId;

/// Simulated-memory address (word index).
pub type Addr = usize;

/// Heap-object kinds (the `T_*` flags of CRuby's `RVALUE` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// Slot on the free list; payload word 1 is the next-free link.
    Free,
    Float,
    String,
    Array,
    Hash,
    /// Plain object: class ref + ivar buffer.
    Object,
    Class,
    Range,
    Thread,
    Mutex,
    Barrier,
    Regexp,
    MatchData,
    /// Block turned into a first-class value (captures defining frame).
    Proc,
    /// A table of the mini relational store backing the Rails model.
    Table,
}

/// Slot header word: kind + GC mark bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjHeader {
    pub kind: ObjKind,
    pub marked: bool,
}

/// One word of simulated memory.
#[derive(Debug, PartialEq, Default)]
pub enum Word {
    /// Untouched memory.
    #[default]
    Uninit,
    Nil,
    True,
    False,
    /// Immediate integer (Fixnum).
    Int(i64),
    /// Interned symbol.
    Sym(SymId),
    /// Reference to a heap slot (its base address).
    Obj(Addr),
    /// Raw float payload (inside a `Float` object only).
    F64(f64),
    /// String content payload (inside a `String` object only). The bytes
    /// additionally have a shadow buffer in simulated memory for footprint
    /// accounting (see crate docs). A thin `Rc` (a fat `Rc<str>` would
    /// make every word of the image 24 bytes instead of 16).
    Str(Rc<Box<str>>),
    /// Slot header.
    Hdr(ObjHeader),
}

const _: () = assert!(std::mem::size_of::<Word>() == 16);

/// Hand-written so the clone on the memory read path inlines to a plain
/// 16-byte copy for every immediate variant, with the `Rc` refcount bump
/// isolated in the one heap-carrying arm (`Str`) instead of dominating the
/// whole match.
impl Clone for Word {
    #[inline(always)]
    fn clone(&self) -> Word {
        match self {
            Word::Uninit => Word::Uninit,
            Word::Nil => Word::Nil,
            Word::True => Word::True,
            Word::False => Word::False,
            Word::Int(i) => Word::Int(*i),
            Word::Sym(s) => Word::Sym(*s),
            Word::Obj(a) => Word::Obj(*a),
            Word::F64(f) => Word::F64(*f),
            Word::Str(s) => Word::Str(Rc::clone(s)),
            Word::Hdr(h) => Word::Hdr(*h),
        }
    }
}

impl Word {
    /// A string content payload holding a copy of `s`.
    pub fn str(s: &str) -> Word {
        Word::Str(Rc::new(s.into()))
    }

    /// Ruby truthiness: everything except `nil` and `false`.
    pub fn truthy(&self) -> bool {
        !matches!(self, Word::Nil | Word::False)
    }

    /// True when the word is a program-visible Ruby value.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Word::Nil | Word::True | Word::False | Word::Int(_) | Word::Sym(_) | Word::Obj(_)
        )
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Word::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<Addr> {
        match self {
            Word::Obj(a) => Some(*a),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Word::F64(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&Rc<Box<str>>> {
        match self {
            Word::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_header(&self) -> Option<ObjHeader> {
        match self {
            Word::Hdr(h) => Some(*h),
            _ => None,
        }
    }

    /// Ruby `==` on immediates; object equality is decided by the VM.
    pub fn immediate_eq(&self, other: &Word) -> Option<bool> {
        match (self, other) {
            (Word::Nil, Word::Nil) => Some(true),
            (Word::True, Word::True) => Some(true),
            (Word::False, Word::False) => Some(true),
            (Word::Int(a), Word::Int(b)) => Some(a == b),
            (Word::Sym(a), Word::Sym(b)) => Some(a == b),
            (Word::Nil | Word::True | Word::False | Word::Int(_) | Word::Sym(_), _)
                if other.is_value() && !matches!(other, Word::Obj(_)) =>
            {
                Some(false)
            }
            _ => None,
        }
    }
}

/// Ruby floor division (sign of the divisor, like `Integer#/`).
pub fn ruby_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ruby modulo (result takes the divisor's sign, like `Integer#%`).
pub fn ruby_mod(a: i64, b: i64) -> i64 {
    let m = a % b;
    if m != 0 && ((m < 0) != (b < 0)) {
        m + b
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Word::Nil.truthy());
        assert!(!Word::False.truthy());
        assert!(Word::True.truthy());
        assert!(Word::Int(0).truthy(), "0 is truthy in Ruby");
        assert!(Word::Obj(1).truthy());
    }

    #[test]
    fn ruby_division_matches_ruby() {
        // Samples checked against CRuby semantics.
        assert_eq!(ruby_div(7, 2), 3);
        assert_eq!(ruby_div(-7, 2), -4);
        assert_eq!(ruby_div(7, -2), -4);
        assert_eq!(ruby_div(-7, -2), 3);
        assert_eq!(ruby_mod(7, 2), 1);
        assert_eq!(ruby_mod(-7, 2), 1);
        assert_eq!(ruby_mod(7, -2), -1);
        assert_eq!(ruby_mod(-7, -2), -1);
        assert_eq!(ruby_mod(6, 3), 0);
        assert_eq!(ruby_mod(-6, 3), 0);
    }

    #[test]
    fn immediate_equality() {
        assert_eq!(Word::Int(3).immediate_eq(&Word::Int(3)), Some(true));
        assert_eq!(Word::Int(3).immediate_eq(&Word::Int(4)), Some(false));
        assert_eq!(Word::Nil.immediate_eq(&Word::Nil), Some(true));
        assert_eq!(Word::Int(3).immediate_eq(&Word::Nil), Some(false));
        // Object comparisons are not decided at the immediate level.
        assert_eq!(Word::Obj(8).immediate_eq(&Word::Obj(8)), None);
    }

    #[test]
    fn value_classification() {
        assert!(Word::Int(1).is_value());
        assert!(Word::Obj(64).is_value());
        assert!(!Word::F64(1.0).is_value());
        assert!(!Word::Hdr(ObjHeader { kind: ObjKind::Free, marked: false }).is_value());
        assert!(!Word::Uninit.is_value());
    }
}
