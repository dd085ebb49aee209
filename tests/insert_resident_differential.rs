//! Differential suite for the resident insert path.
//!
//! A [`DatasetHandle`] serves insert requests through a resident
//! `INCREPAIR` state that is built once over the clean base and rolled
//! back after every request. The contracts pinned here:
//!
//! * **One-shot equivalence** — over long interleaved request sequences
//!   (every ΔD size, k ∈ {1, 2}, all three orderings, with and without a
//!   ΔD weights CSV, error requests in between), every reply of one
//!   long-lived handle — CSV bytes and summary line, or error text — is
//!   byte-identical to the one-shot answer: `inc_repair` on a fresh
//!   session's handle, then a full `check` and a full render.
//! * **Exact rollback** — after every request the resident state is back
//!   at its post-build baseline: the group count of every detection
//!   index, the active domain's distinct count and each built value
//!   index's length per attribute; the handle's census checksum is the
//!   one it had before the request and equals a fresh census build.
//! * **A base-only memo that stays warm** — after every request each value
//!   index's memo keys are values of the base's own active domain, the
//!   memo is non-empty, and it keeps every key of the request before.
//! * **No dependence on history** — the same requests replayed in a
//!   shuffled order on a fresh session get byte-identical replies.
//! * **No side effects** — the handle's detect report and BATCHREPAIR
//!   bytes are the same before and after the sequence, on the clean base
//!   and on a dirty one whose inserts keep failing.
//! * **ΔD-wide verification** — the ΔD-only check flags a violating ΔD
//!   tuple wherever it sits in ΔD.

use cfdclean::cfd::census::GroupCensus;
use cfdclean::cfd::{check, Cfd, Engine, Sigma};
use cfdclean::gen::{generate, inject, GenConfig, NoiseConfig};
use cfdclean::model::{csv, ActiveDomain, AttrId, Relation, Schema, Tuple, ValuePool};
use cfdclean::repair::{inc_repair, IncConfig, InsertRepairer, Ordering, RepairOptions};
use cfdclean::{DatasetRef, InsertRun, ResidentFootprint, Session};

const BASE_TUPLES: usize = 1_000;
const SIZES: [usize; 8] = [1, 10, 20, 30, 40, 50, 60, 70];
const ORDERINGS: [Ordering; 3] = [Ordering::Violations, Ordering::Linear, Ordering::Weight];

/// One §7.1 database and a pool of fully dirty arrivals, as CSV text.
struct Inputs {
    clean_csv: Vec<u8>,
    dirty_csv: Vec<u8>,
    /// Weights of the noisy copy, row-aligned with both relations.
    weights_csv: Vec<u8>,
    rules: String,
    header: String,
    /// Arrival rows with their weight rows.
    arrivals: Vec<(String, String)>,
    weights_header: String,
}

fn render(rel: &Relation) -> Vec<u8> {
    let mut out = Vec::new();
    csv::write_relation(rel, &mut out).unwrap();
    out
}

fn lines(bytes: Vec<u8>) -> (String, Vec<String>) {
    let text = String::from_utf8(bytes).unwrap();
    let mut it = text.lines().map(str::to_string);
    let header = it.next().unwrap();
    (header, it.collect())
}

fn inputs(seed: u64) -> Inputs {
    let w = generate(&GenConfig::sized(BASE_TUPLES, seed));
    let noise = |rel: &Relation, rate: f64| {
        inject(
            rel,
            &w.world,
            &NoiseConfig {
                rate,
                seed,
                ..Default::default()
            },
        )
        .dirty
    };
    let dirty = noise(&w.dopt, 0.05);
    let mut weights_csv = Vec::new();
    csv::write_weights(&dirty, &mut weights_csv).unwrap();
    let fresh = generate(&GenConfig {
        n_tuples: 70,
        seed: seed ^ 0x5eed,
        world: w.world.config.clone(),
    });
    let arriving = noise(&fresh.dopt, 1.0);
    let (header, rows) = lines(render(&arriving));
    let mut arrival_weights = Vec::new();
    csv::write_weights(&arriving, &mut arrival_weights).unwrap();
    let (weights_header, weight_rows) = lines(arrival_weights);
    let rules = w
        .sigma
        .sources()
        .iter()
        .map(|c| cfdclean::cfd::parser::render_cfd(w.dopt.schema(), c) + "\n")
        .collect();
    Inputs {
        clean_csv: render(&w.dopt),
        dirty_csv: render(&dirty),
        weights_csv,
        rules,
        header,
        arrivals: rows.into_iter().zip(weight_rows).collect(),
        weights_header,
    }
}

/// One insert request.
#[derive(Clone)]
struct Request {
    updates: Vec<u8>,
    weights: Option<Vec<u8>>,
    ordering: Ordering,
    k: usize,
}

impl Inputs {
    /// The first `size` arrivals starting at `from`, wrapping around.
    fn request(
        &self,
        from: usize,
        size: usize,
        weighted: bool,
        ordering: Ordering,
        k: usize,
    ) -> Request {
        let picked: Vec<&(String, String)> = (0..size)
            .map(|i| &self.arrivals[(from + i) % self.arrivals.len()])
            .collect();
        let join = |header: &str, rows: Vec<&String>| {
            let mut text = format!("{header}\n");
            for r in rows {
                text.push_str(r);
                text.push('\n');
            }
            text.into_bytes()
        };
        Request {
            updates: join(&self.header, picked.iter().map(|(r, _)| r).collect()),
            weights: weighted.then(|| {
                join(
                    &self.weights_header,
                    picked.iter().map(|(_, w)| w).collect(),
                )
            }),
            ordering,
            k,
        }
    }
}

type Reply = Result<(Vec<u8>, String), String>;

fn open(session: &Session, name: &str, data: &[u8], inputs: &Inputs, weights: bool) -> DatasetRef {
    let weights = weights.then_some(inputs.weights_csv.as_slice());
    session
        .open_csv(name, data, Some(&inputs.rules), weights)
        .expect("open")
        .entry
}

fn insert(entry: &DatasetRef, req: &Request) -> Reply {
    let mut cell = entry.write().unwrap();
    cell.handle_mut()
        .unwrap()
        .insert(&req.updates, req.weights.as_deref(), req.ordering, req.k)
        .map(|run| {
            let summary = run.summary();
            (run.csv, summary)
        })
        .map_err(|e| e.to_string())
}

/// The one-shot answer from a fresh session: parse ΔD into the fresh
/// handle's pool, `inc_repair`, a full `check`, a full render. Requests
/// that fail before the repair answer with the fresh handle's error.
fn one_shot(inputs: &Inputs, data: &[u8], base_weighted: bool, req: &Request) -> Reply {
    let session = Session::new();
    let entry = open(&session, "base", data, inputs, base_weighted);
    let cell = entry.read().unwrap();
    let h = cell.handle().unwrap();
    let (base, sigma) = (h.relation(), h.sigma().unwrap());
    let mut updates =
        csv::read_relation_in("updates", &mut req.updates.as_slice(), base.pool().clone()).unwrap();
    let weights_ok = match &req.weights {
        Some(w) => csv::read_weights(&mut updates, &mut w.as_slice()).is_ok(),
        None => true,
    };
    let arity_ok = updates.schema().arity() == base.schema().arity();
    if !(arity_ok && weights_ok && h.detect().unwrap().total == 0) {
        drop(cell);
        return insert(&entry, req);
    }
    let delta: Vec<Tuple> = updates.iter().map(|(_, t)| t.to_tuple()).collect();
    let config = IncConfig {
        k: req.k,
        ordering: req.ordering,
        ..IncConfig::default()
    };
    let out = inc_repair(base, &delta, sigma, config).map_err(|e| e.to_string())?;
    assert!(check(&out.repair, sigma), "one-shot merge is dirty");
    let run = InsertRun {
        csv: render(&out.repair),
        inserted: delta.len(),
        base_rows: base.len(),
        modified: out.stats.modified,
        nulls: out.stats.nulls_introduced,
        cost: out.stats.cost,
    };
    let summary = run.summary();
    Ok((run.csv, summary))
}

/// Everything a handle answers without inserting: the detect report and
/// a BATCHREPAIR's CSV, edit log and summary.
fn observe(entry: &DatasetRef) -> (String, Vec<u8>, Option<Vec<u8>>, String) {
    let cell = entry.read().unwrap();
    let h = cell.handle().unwrap();
    let run = h.repair(&RepairOptions::new(), true).unwrap();
    let summary = format!("{} / {}", run.summary(), run.detail);
    (h.detect_report(5).unwrap(), run.csv, run.edit_log, summary)
}

fn footprint(entry: &DatasetRef) -> Option<ResidentFootprint> {
    entry.read().unwrap().handle().unwrap().resident_footprint()
}

/// The resident state equals `baseline` in every count that cannot grow
/// legitimately; a value index built since is as long as its domain, and
/// every memo key is a value of the base's own active domain. Returns
/// the footprint.
fn assert_at_baseline(
    entry: &DatasetRef,
    baseline: &ResidentFootprint,
    what: &str,
) -> ResidentFootprint {
    let now = footprint(entry).unwrap_or_else(|| panic!("{what}: resident state dropped"));
    let base_domain = ActiveDomain::of_relation(entry.read().unwrap().handle().unwrap().relation());
    for (a, keys) in now.repairer.memo_keys.iter().enumerate() {
        for key in keys {
            assert!(
                base_domain.contains_id(AttrId(a as u16), *key),
                "{what}: memo key {key:?} of attribute {a} is not a base value"
            );
        }
    }
    assert_eq!(now.groups, baseline.groups, "{what}: detection groups");
    let fresh = {
        let cell = entry.read().unwrap();
        let h = cell.handle().unwrap();
        GroupCensus::new(h.relation(), h.sigma().unwrap()).checksum()
    };
    assert_eq!(now.census, fresh, "{what}: census");
    assert_eq!(
        now.repairer.adom_distinct, baseline.repairer.adom_distinct,
        "{what}: active domain"
    );
    for (a, len) in now.repairer.value_index_len.iter().enumerate() {
        if let Some(len) = len {
            assert_eq!(
                *len, baseline.repairer.adom_distinct[a],
                "{what}: value index of attribute {a}"
            );
        }
    }
    now
}

/// Every memo key of `before` is still one in `after`.
fn assert_memo_kept(before: &ResidentFootprint, after: &ResidentFootprint, what: &str) {
    let (before, after) = (&before.repairer.memo_keys, &after.repairer.memo_keys);
    assert!(
        after.iter().any(|keys| !keys.is_empty()),
        "{what}: memo empty"
    );
    for (a, (was, now)) in before.iter().zip(after).enumerate() {
        assert!(
            was.iter().all(|k| now.binary_search(k).is_ok()),
            "{what}: memo of attribute {a} lost keys"
        );
    }
}

/// One long interleaved sequence on one session per seed, every reply
/// checked against the one-shot answer and the rollback checked after
/// every request.
#[test]
fn resident_inserts_equal_one_shot_and_roll_back_exactly() {
    for seed in [3u64, 11, 29] {
        let inputs = inputs(seed);
        let session = Session::new();
        let base = open(&session, "base", &inputs.clean_csv, &inputs, false);
        let dirty = open(&session, "dirty", &inputs.dirty_csv, &inputs, true);
        let before = (observe(&base), observe(&dirty));
        assert!(footprint(&base).is_none(), "state is built lazily");

        let mut baseline: Option<ResidentFootprint> = None;
        let mut previous: Option<ResidentFootprint> = None;
        let mut base_weighted = false;
        for i in 0..24 {
            let what = format!("seed {seed} request {i}");
            if i == 16 {
                // New base weights drop the state; the next insert
                // rebuilds it at the same baseline.
                let mut cell = base.write().unwrap();
                let h = cell.handle_mut().unwrap();
                h.apply_weights(&inputs.weights_csv).unwrap();
                assert!(
                    h.resident_footprint().is_none(),
                    "{what}: state survived weights"
                );
                base_weighted = true;
                previous = None;
            }
            let req = inputs.request(
                i * 17,
                SIZES[i % SIZES.len()],
                i % 4 == 3,
                ORDERINGS[i % 3],
                1 + (i / 3) % 2,
            );
            let census = footprint(&base).map(|f| f.census);
            let got = insert(&base, &req);
            assert!(got.is_ok(), "{what}: {got:?}");
            assert_eq!(
                got,
                one_shot(&inputs, &inputs.clean_csv, base_weighted, &req),
                "{what}"
            );
            let base_line = baseline.get_or_insert_with(|| footprint(&base).unwrap());
            let now = assert_at_baseline(&base, base_line, &what);
            if let Some(census) = census {
                assert_eq!(now.census, census, "{what}: census moved");
            }
            if let Some(before) = &previous {
                assert_memo_kept(before, &now, &what);
            }
            previous = Some(now);

            if i % 5 == 2 {
                // Error requests between the good ones: a narrow ΔD,
                // unparsable weights, and any insert on the dirty base.
                let narrow = Request {
                    updates: b"AC,PN\n999,1112223\n".to_vec(),
                    ..req.clone()
                };
                let bad_weights = Request {
                    weights: Some(b"not,a,weights,file\n".to_vec()),
                    ..req.clone()
                };
                for (bad, label) in [(&narrow, "arity"), (&bad_weights, "weights")] {
                    let got = insert(&base, bad);
                    assert!(got.is_err(), "{what}: {label} error accepted");
                    let want = one_shot(&inputs, &inputs.clean_csv, base_weighted, bad);
                    assert_eq!(got, want, "{what}: {label} error");
                    assert_at_baseline(&base, base_line, &format!("{what} after {label} error"));
                }
                let got = insert(&dirty, &req);
                assert!(
                    matches!(&got, Err(m) if m.contains("base is not clean")),
                    "{what}: {got:?}"
                );
                assert_eq!(
                    got,
                    one_shot(&inputs, &inputs.dirty_csv, true, &req),
                    "{what}"
                );
                assert!(
                    footprint(&dirty).is_none(),
                    "{what}: dirty base built a state"
                );
            }
        }
        assert_eq!(observe(&base), before.0, "seed {seed}: clean base");
        assert_eq!(observe(&dirty), before.1, "seed {seed}: dirty base");
    }
}

/// The ΔD-only check looks at every ΔD tuple. The base here breaks the
/// precondition on purpose — `(k1, x)` and `(k1, y)` conflict — so a ΔD
/// tuple joining group `k1` with value `x` conflicts with `(k1, y)`: a
/// violation only that ΔD tuple can reveal. It must be found whether it
/// comes first or last in ΔD, and the indexes must roll back either way.
#[test]
fn verification_covers_every_delta_tuple() {
    let schema = Schema::new("r", &["k", "v"]).unwrap();
    let fd = Cfd::standard_fd("kv", vec![AttrId(0)], vec![AttrId(1)]);
    let mut base = Relation::new_in(schema.clone(), ValuePool::new_handle());
    let sigma = Sigma::normalize_in(schema, vec![fd], base.pool()).unwrap();
    for row in [["k1", "x"], ["k1", "y"], ["k2", "z"]] {
        base.insert(Tuple::new_in(row, base.pool())).unwrap();
    }
    let config = IncConfig {
        ordering: Ordering::Linear,
        ..IncConfig::default()
    };
    let conflicting = Tuple::new_in(["k1", "x"], base.pool());
    let clean = Tuple::new_in(["k3", "w"], base.pool());
    let parts = Engine::build(&base, &sigma).to_parts();
    let census = parts.census(&base, &sigma).checksum();
    let mut repairer = InsertRepairer::new(&base);
    let before = repairer.footprint();
    for delta in [
        vec![conflicting.clone(), clean.clone()],
        vec![clean.clone(), conflicting.clone()],
    ] {
        let run = repairer
            .repair(&base, &delta, &sigma, &parts, config.clone())
            .unwrap();
        assert!(!run.clean, "{delta:?}: the conflict went unseen");
        let after = repairer.footprint();
        assert_eq!(parts.census(&base, &sigma).checksum(), census, "{delta:?}");
        assert_eq!(after.adom_distinct, before.adom_distinct, "{delta:?}");
        assert_eq!(after.value_index_len, before.value_index_len, "{delta:?}");
        assert_eq!(parts.indexes.for_lhs(&[AttrId(0)]).group_count(), 2);
    }
}

/// Replies depend on the request alone: the same requests, answered in
/// input order by one handle and in a shuffled order by a fresh
/// session's handle, get byte-identical replies — so nothing a request
/// leaves warm, the value-index memo included, can change a later one.
#[test]
fn replies_do_not_depend_on_request_order() {
    use cfd_prng::{ChaCha8Rng, SeedableRng, SliceRandom};
    let inputs = inputs(17);
    let requests: Vec<Request> = (0..16)
        .map(|i| {
            inputs.request(
                i * 13,
                SIZES[i % SIZES.len()],
                i % 4 == 1,
                ORDERINGS[i % 3],
                1 + i % 2,
            )
        })
        .collect();
    let replay = |order: &[usize]| -> Vec<Reply> {
        let session = Session::new();
        let base = open(&session, "base", &inputs.clean_csv, &inputs, false);
        let mut replies = vec![None; requests.len()];
        for &i in order {
            replies[i] = Some(insert(&base, &requests[i]));
        }
        replies.into_iter().map(Option::unwrap).collect()
    };
    let in_order: Vec<usize> = (0..requests.len()).collect();
    let mut shuffled = in_order.clone();
    shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(17));
    assert_ne!(shuffled, in_order);
    let want = replay(&in_order);
    assert!(want.iter().all(Result::is_ok), "{want:?}");
    let got = replay(&shuffled);
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "request {i}");
    }
}
