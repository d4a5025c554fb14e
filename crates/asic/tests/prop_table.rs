//! `MatchTable` against a reference `std` `HashMap` (default hasher): any
//! control-plane script of inserts, updates, removes and wipes leaves the
//! same contents behind, the static capacity refuses exactly the inserts
//! it should, and data-plane lookups agree with the reference on hits and
//! misses alike.

use std::collections::HashMap;

use netclone_asic::{AsicError, AsicSpec, Layout, MatchTable, PacketPass};
use proptest::prelude::*;

const CAPACITY: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32, u16),
    Remove(u32),
    Lookup(u32),
    Clear,
}

/// Keys from the families the real tables hold — dense small ids and
/// testbed-style addresses sharing their high bits — few enough that
/// updates, removals of present keys and capacity pressure all occur.
fn arb_key() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..40, (0u32..40).prop_map(|i| 0x0A00_0165 + i),]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
        arb_key().prop_map(Op::Lookup),
        arb_key().prop_map(Op::Lookup),
        Just(Op::Clear),
    ]
}

proptest! {
    #[test]
    fn match_table_agrees_with_a_std_hashmap(
        ops in proptest::collection::vec(arb_op(), 1..300)
    ) {
        let mut layout = Layout::new(AsicSpec::tofino());
        let mut table: MatchTable<u32, u16> =
            MatchTable::alloc(&mut layout, "t", 0, CAPACITY, 4, 2, 1).unwrap();
        let mut reference: HashMap<u32, u16> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let fits = reference.contains_key(&k) || reference.len() < CAPACITY;
                    let got = table.insert(k, v);
                    if fits {
                        prop_assert_eq!(got, Ok(()));
                        reference.insert(k, v);
                    } else {
                        prop_assert_eq!(got, Err(AsicError::TableFull { capacity: CAPACITY }));
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(&k), reference.remove(&k).is_some());
                }
                Op::Lookup(k) => {
                    let mut pass = PacketPass::new();
                    prop_assert_eq!(table.lookup(&mut pass, k), Ok(reference.get(&k).copied()));
                    prop_assert_eq!(table.peek(&k), reference.get(&k).copied());
                }
                Op::Clear => {
                    table.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(table.len(), reference.len());
            prop_assert_eq!(table.is_empty(), reference.is_empty());
        }
        for (k, v) in &reference {
            prop_assert_eq!(table.peek(k), Some(*v));
        }
    }
}
