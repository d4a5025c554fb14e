//! `MatchTable` and `DenseTable` against a reference `std` `HashMap`
//! (default hasher): any control-plane script of inserts, updates, removes
//! and wipes leaves the same contents behind, the static capacity refuses
//! exactly the inserts it should, and data-plane lookups agree with the
//! reference on hits and misses alike.

use std::collections::HashMap;

use netclone_asic::{AsicError, AsicSpec, DenseTable, Layout, MatchTable, PacketPass};
use proptest::prelude::*;
use proptest::BoxedStrategy;

const CAPACITY: usize = 24;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u32, u16),
    Remove(u32),
    Lookup(u32),
    Clear,
}

/// Ops over a key family few enough that updates, removals of present
/// keys and capacity pressure all occur.
fn arb_op(keys: BoxedStrategy<u32>) -> impl Strategy<Value = Op> {
    let insert = (keys.clone(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v));
    prop_oneof![
        insert.clone(),
        insert.clone(),
        insert,
        keys.clone().prop_map(Op::Remove),
        keys.clone().prop_map(Op::Lookup),
        keys.prop_map(Op::Lookup),
        Just(Op::Clear),
    ]
}

proptest! {
    /// Keys from the families the real route tables hold: small ids and
    /// testbed-style addresses sharing their high bits.
    #[test]
    fn match_table_agrees_with_a_std_hashmap(
        ops in proptest::collection::vec(
            arb_op(prop_oneof![0u32..40, (0u32..40).prop_map(|i| 0x0A00_0165 + i)].boxed()),
            1..300,
        )
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

    /// The same script over ids: small ones, and ones at the top of the
    /// `u16` range, so the slot array's growth to the largest key
    /// installed is exercised.
    #[test]
    fn dense_table_agrees_with_a_std_hashmap(
        ops in proptest::collection::vec(
            arb_op(prop_oneof![0u32..40, (0u32..40).prop_map(|i| u32::from(u16::MAX) - i)].boxed()),
            1..300,
        )
    ) {
        let mut layout = Layout::new(AsicSpec::tofino());
        let mut table: DenseTable<u16> =
            DenseTable::alloc(&mut layout, "t", 0, CAPACITY, 2, 2, 1).unwrap();
        let mut reference: HashMap<u16, u16> = HashMap::new();
        let id = |k: u32| u16::try_from(k).expect("ids are drawn from the u16 range");
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let k = id(k);
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
                    prop_assert_eq!(table.remove(id(k)), reference.remove(&id(k)).is_some());
                }
                Op::Lookup(k) => {
                    let want = reference.get(&id(k)).copied();
                    prop_assert_eq!(table.lookup(&mut PacketPass::new(), id(k)), Ok(want));
                    prop_assert_eq!(table.peek(id(k)), want);
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
            prop_assert_eq!(table.peek(*k), Some(*v));
        }
    }
}
