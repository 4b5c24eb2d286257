//! Output checks, computed apart from the program under test.
//!
//! Every check takes what the members' handlers recorded (delivery logs, replica digests,
//! reply payloads, installed views) and compares it with what the load generator knows it
//! sent, or with a property virtual synchrony promises.  Nothing is compared with stored
//! output of an earlier run.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use vsync_util::ProcessId;

/// A multicast the generator (or an echoing member) sent, which every member must deliver
/// exactly once.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub key: u64,
    /// The multicast this one causally follows (an echo's trigger).
    pub cause: Option<u64>,
}

/// One delivery as a member's handler saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Deliv {
    pub key: u64,
    pub sender: u8,
    pub abcast: bool,
    /// Position of the message in its sender's stream of this protocol, stamped by the
    /// sender at issue time.
    pub fseq: u32,
}

/// Which multicasts failed, and deliveries the generator cannot account for.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Keys of multicasts some member missed, received twice, or received out of FIFO,
    /// causal or total order.
    pub failed: BTreeSet<u64>,
    /// Deliveries of keys that were never sent (always a hard failure of the run).
    pub unknown: u64,
}

/// Checks exactly-once delivery, per-sender FIFO (per protocol stream), causal order of
/// every `cause` edge, and one ABCAST order at every member.
///
/// Attribution: a message delivered ahead of an earlier message of the same stream, or
/// ahead of its cause, is the one that failed; for total order, member 0's ABCAST sequence
/// is the reference and a member's deliveries outside the longest subsequence agreeing with
/// it fail.
pub fn check_multicasts(sent: &[Sent], logs: &[Vec<Deliv>]) -> Verdict {
    let mut v = Verdict::default();
    let index: HashMap<u64, usize> = sent.iter().enumerate().map(|(i, s)| (s.key, i)).collect();
    let mut reference: Option<HashMap<u64, usize>> = None;
    for log in logs {
        let mut count = vec![0u32; sent.len()];
        let mut pos = vec![usize::MAX; sent.len()];
        for (p, d) in log.iter().enumerate() {
            match index.get(&d.key) {
                Some(&i) => {
                    count[i] += 1;
                    if pos[i] == usize::MAX {
                        pos[i] = p;
                    }
                }
                None => v.unknown += 1,
            }
        }
        for (i, s) in sent.iter().enumerate() {
            if count[i] != 1 {
                v.failed.insert(s.key);
            }
            if let Some(c) = s.cause.and_then(|c| index.get(&c)) {
                if pos[*c] >= pos[i] {
                    v.failed.insert(s.key);
                }
            }
        }
        // FIFO: scanning backwards, a delivery whose stream position exceeds one delivered
        // after it overtook that message.  Only first deliveries count (a duplicate is
        // already a failure of its own, and must not make earlier messages look early).
        let mut min_after: HashMap<(u8, bool), u32> = HashMap::new();
        for (p, d) in log.iter().enumerate().rev() {
            if index.get(&d.key).map(|&i| pos[i]) != Some(p) {
                continue;
            }
            let m = min_after.entry((d.sender, d.abcast)).or_insert(u32::MAX);
            if d.fseq > *m {
                v.failed.insert(d.key);
            }
            *m = (*m).min(d.fseq);
        }
        // Total order.
        let ab: Vec<u64> = log.iter().filter(|d| d.abcast).map(|d| d.key).collect();
        match &reference {
            None => {
                let mut r = HashMap::with_capacity(ab.len());
                for k in ab {
                    let n = r.len();
                    r.entry(k).or_insert(n);
                }
                reference = Some(r);
            }
            Some(r) => {
                let ranks: Vec<Option<usize>> = ab.iter().map(|k| r.get(k).copied()).collect();
                let keep = longest_increasing(&ranks);
                for (i, k) in ab.iter().enumerate() {
                    if !keep[i] {
                        v.failed.insert(*k);
                    }
                }
            }
        }
    }
    v
}

/// Marks the members of one longest strictly increasing subsequence of `ranks` (`None`
/// never belongs to it).
fn longest_increasing(ranks: &[Option<usize>]) -> Vec<bool> {
    // Patience sorting with back-pointers.
    let mut tails: Vec<usize> = Vec::new(); // index into ranks of the tail of each length
    let mut prev = vec![usize::MAX; ranks.len()];
    for (i, r) in ranks.iter().enumerate() {
        let Some(r) = *r else { continue };
        let at = tails.partition_point(|&t| ranks[t].expect("tails hold ranked entries") < r);
        if at > 0 {
            prev[i] = tails[at - 1];
        }
        if at == tails.len() {
            tails.push(i);
        } else {
            tails[at] = i;
        }
    }
    let mut keep = vec![false; ranks.len()];
    let mut cur = tails.last().copied().unwrap_or(usize::MAX);
    while cur != usize::MAX {
        keep[cur] = true;
        cur = prev[cur];
    }
    keep
}

/// One replica's folded state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replica {
    /// Order-sensitive fold of every applied update.
    pub digest: u64,
    /// Sum of applied update values.
    pub sum: u64,
    /// Number of applied updates.
    pub applied: u64,
}

impl Replica {
    /// Folds one update into the replica.
    pub fn apply(&mut self, id: u64, value: u64) {
        self.digest = mix(self.digest ^ mix(id.wrapping_add(value)));
        self.sum = self.sum.wrapping_add(value);
        self.applied += 1;
    }
}

/// SplitMix64 finaliser: the benchmark's own hash, independent of the program's.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The value a member must answer query `q` with.
pub fn expected_reply(q: u64, member: ProcessId) -> u64 {
    mix(q ^ (u64::from(member.site.0) << 48) ^ (u64::from(member.local) << 16))
}

/// Replicas of one group agree, and their applied sum and count match what was sent.
pub fn check_replicas(replicas: &[Replica], sent_sum: u64, sent_count: u64) -> Result<(), String> {
    let Some(first) = replicas.first() else {
        return Err("no replicas".into());
    };
    if let Some(r) = replicas.iter().find(|r| *r != first) {
        return Err(format!("replica digests diverged: {first:?} vs {r:?}"));
    }
    if first.sum != sent_sum || first.applied != sent_count {
        return Err(format!(
            "replicas applied {} updates summing to {}, generator sent {sent_count} summing to {sent_sum}",
            first.applied, first.sum
        ));
    }
    Ok(())
}

/// One reply to a group query: who answered, the value, and the replica state it read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub member: ProcessId,
    pub value: u64,
    pub state: Replica,
}

/// A query succeeds when every member answered once with `expected_reply`, and (for an
/// ordered read) every member read the same replica state.
pub fn check_query(q: u64, members: &[ProcessId], replies: &[Reply], ordered: bool) -> bool {
    let got: BTreeSet<ProcessId> = replies.iter().map(|r| r.member).collect();
    let want: BTreeSet<ProcessId> = members.iter().copied().collect();
    got == want
        && replies.len() == members.len()
        && replies
            .iter()
            .all(|r| r.value == expected_reply(q, r.member))
        && (!ordered || replies.windows(2).all(|w| w[0].state == w[1].state))
}

/// Views installed by one observer, in installation order: (view sequence, members).
pub type ViewLog = Vec<(u64, Vec<ProcessId>)>;

/// Every observer that installed a view sequence number saw the same membership for it,
/// and `reference` (an observer present throughout) installed exactly `expected`, in order.
pub fn check_views(
    observers: &[ViewLog],
    reference: &ViewLog,
    expected: &[Vec<ProcessId>],
) -> Result<(), String> {
    let mut by_seq: BTreeMap<u64, &Vec<ProcessId>> = BTreeMap::new();
    for log in observers.iter().chain(std::iter::once(reference)) {
        for (seq, members) in log {
            if let Some(prev) = by_seq.insert(*seq, members) {
                if prev != members {
                    return Err(format!(
                        "view {seq} installed as {prev:?} and as {members:?}"
                    ));
                }
            }
        }
    }
    let got: Vec<&Vec<ProcessId>> = reference.iter().map(|(_, m)| m).collect();
    let want: Vec<&Vec<ProcessId>> = expected.iter().collect();
    if got != want {
        return Err(format!(
            "installed {} views, expected {} (first difference at {:?})",
            got.len(),
            want.len(),
            got.iter().zip(&want).position(|(a, b)| a != b)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsync_util::SiteId;

    /// Two senders; key 3 is an echo of key 0; keys 1 and 4 are ABCASTs.
    fn sent() -> Vec<Sent> {
        let s = |key, cause| Sent { key, cause };
        vec![
            s(0, None),
            s(1, None),
            s(2, None),
            s(3, Some(0)),
            s(4, None),
        ]
    }

    fn d(key: u64, sender: u8, abcast: bool, fseq: u32) -> Deliv {
        Deliv {
            key,
            sender,
            abcast,
            fseq,
        }
    }

    fn good_log() -> Vec<Deliv> {
        vec![
            d(0, 0, false, 0),
            d(2, 1, false, 0),
            d(1, 0, true, 0),
            d(3, 1, false, 1),
            d(4, 1, true, 0),
        ]
    }

    fn failed(logs: Vec<Vec<Deliv>>) -> Vec<u64> {
        let v = check_multicasts(&sent(), &logs);
        assert_eq!(v.unknown, 0);
        v.failed.into_iter().collect()
    }

    #[test]
    fn clean_logs_pass() {
        assert!(failed(vec![good_log(), good_log()]).is_empty());
    }

    #[test]
    fn dropped_delivery_fails_that_message() {
        let mut bad = good_log();
        bad.remove(1);
        assert_eq!(failed(vec![good_log(), bad]), vec![2]);
    }

    #[test]
    fn duplicated_delivery_fails_that_message() {
        let mut bad = good_log();
        bad.push(d(2, 1, false, 0));
        assert_eq!(failed(vec![good_log(), bad]), vec![2]);
    }

    #[test]
    fn fifo_inversion_fails_the_overtaking_message() {
        // Sender 1's CBCASTs 2 (fseq 0) and 3 (fseq 1) swapped; 3 is also an echo of 0,
        // still delivered after it.
        let bad = vec![
            d(0, 0, false, 0),
            d(3, 1, false, 1),
            d(2, 1, false, 0),
            d(1, 0, true, 0),
            d(4, 1, true, 0),
        ];
        assert_eq!(failed(vec![good_log(), bad]), vec![3]);
    }

    #[test]
    fn causal_inversion_fails_the_echo() {
        let bad = vec![
            d(2, 1, false, 0),
            d(3, 1, false, 1),
            d(0, 0, false, 0),
            d(1, 0, true, 0),
            d(4, 1, true, 0),
        ];
        assert_eq!(failed(vec![good_log(), bad]), vec![3]);
    }

    #[test]
    fn total_order_disagreement_fails_a_reordered_abcast() {
        let mut bad = good_log();
        bad.swap(2, 4);
        let f = failed(vec![good_log(), bad]);
        assert_eq!(f.len(), 1);
        assert!(f[0] == 1 || f[0] == 4);
    }

    #[test]
    fn unknown_deliveries_are_reported() {
        let mut bad = good_log();
        bad.push(d(99, 0, false, 5));
        assert_eq!(check_multicasts(&sent(), &[bad]).unknown, 1);
    }

    fn replica(values: &[(u64, u64)]) -> Replica {
        let mut r = Replica::default();
        for (id, v) in values {
            r.apply(*id, *v);
        }
        r
    }

    #[test]
    fn replicas_must_agree_and_match_the_sent_sum() {
        let a = replica(&[(1, 5), (2, 7)]);
        assert!(check_replicas(&[a, a], 12, 2).is_ok());
        // Same updates in another order: the digest diverges.
        let b = replica(&[(2, 7), (1, 5)]);
        assert!(check_replicas(&[a, b], 12, 2).is_err());
        assert!(check_replicas(&[a, a], 13, 2).is_err());
    }

    #[test]
    fn queries_check_values_membership_and_ordered_state() {
        let m = [ProcessId::new(SiteId(0), 1), ProcessId::new(SiteId(1), 1)];
        let st = replica(&[(1, 1)]);
        let reply = |member: ProcessId, state| Reply {
            member,
            value: expected_reply(7, member),
            state,
        };
        let ok = [reply(m[0], st), reply(m[1], st)];
        assert!(check_query(7, &m, &ok, true));
        assert!(!check_query(8, &m, &ok, true), "wrong query id");
        assert!(!check_query(7, &m, &ok[..1], true), "missing member");
        let skew = [reply(m[0], st), reply(m[1], Replica::default())];
        assert!(check_query(7, &m, &skew, false));
        assert!(!check_query(7, &m, &skew, true), "ordered reads disagree");
    }

    #[test]
    fn views_must_agree_and_follow_the_operations() {
        let p = |l| ProcessId::new(SiteId(0), l);
        let reference: ViewLog = vec![(2, vec![p(1), p(2)]), (3, vec![p(1)])];
        let expected = vec![vec![p(1), p(2)], vec![p(1)]];
        assert!(check_views(std::slice::from_ref(&reference), &reference, &expected).is_ok());
        let mismatched: ViewLog = vec![(3, vec![p(1), p(3)])];
        assert!(check_views(&[mismatched], &reference, &expected).is_err());
        assert!(check_views(&[], &reference, &expected[..1]).is_err());
    }
}
