//! Runtime lock-order enforcement: the rank-annotated mutexes in
//! [`hacc_comm::sync`] must panic the moment any thread acquires
//! against the `Link → Mail → Mirror → …` order — including the exact
//! mailbox→link inversion a human review caught in PR 6 — and the
//! acquisition scripts in [`hacc_comm::protocol::locks`] must execute
//! cleanly under the same checker, tying the model-checked shapes to
//! the runtime discipline.
//!
//! The checker is compiled in only for debug builds (zero-cost in
//! release), so every test here is gated on `debug_assertions`.

#![cfg(debug_assertions)]

use hacc_comm::protocol::locks::{self, LockOp};
use hacc_comm::protocol::Mutations;
use hacc_comm::sync::{LockRank, Mutex, MutexGuard};

/// Run `f` on a fresh thread (the held-lock stack is thread-local) and
/// return the panic message if it panicked.
fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
    std::thread::spawn(f).join().err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_else(|| "<non-string panic>".into())
    })
}

/// The acceptance-criteria scenario: a deliberately inverted
/// mailbox→link acquisition must trip the checker with a diagnostic
/// naming both ranks.
#[test]
fn inverted_mail_then_link_acquisition_trips_the_checker() {
    let msg = panic_message(|| {
        let link = Mutex::new(LockRank::Link, ());
        let mail = Mutex::new(LockRank::Mail, ());
        let _mail = mail.lock(LockRank::Mail);
        let _link = link.lock(LockRank::Link); // Link (30) under Mail (32): boom
    })
    .expect("the inversion must panic");
    assert!(msg.contains("lock-order violation"), "{msg}");
    assert!(msg.contains("Link") && msg.contains("Mail"), "{msg}");
}

/// The documented order is clean: `Link → Mail → Mirror` nests freely.
#[test]
fn documented_transport_order_is_clean() {
    let link = Mutex::new(LockRank::Link, ());
    let mail = Mutex::new(LockRank::Mail, ());
    let mirror = Mutex::new(LockRank::Mirror, ());
    let _l = link.lock(LockRank::Link);
    let _m = mail.lock(LockRank::Mail);
    let _v = mirror.lock(LockRank::Mirror);
}

/// Execute one acquisition script from [`protocol::locks`] against
/// real ranked mutexes, so the shapes the model checker explores are
/// the same shapes the runtime checker accepts.
fn run_script(ops: &[LockOp]) {
    let mut ranks: Vec<LockRank> = Vec::new();
    for op in ops {
        let (LockOp::Acquire(r) | LockOp::Release(r)) = op;
        if !ranks.contains(r) {
            ranks.push(*r);
        }
    }
    let pool: Vec<(LockRank, Mutex<()>)> =
        ranks.iter().map(|&r| (r, Mutex::new(r, ()))).collect();
    let mut held: Vec<(LockRank, MutexGuard<'_, ()>)> = Vec::new();
    for op in ops {
        match op {
            LockOp::Acquire(r) => {
                let (_, m) = pool.iter().find(|(pr, _)| pr == r).expect("rank in pool");
                held.push((*r, m.lock(*r)));
            }
            LockOp::Release(r) => {
                let (top, _guard) = held.pop().expect("release without acquire");
                assert_eq!(top, *r, "scripts release in LIFO order");
            }
        }
    }
    assert!(held.is_empty(), "script left locks held");
}

/// Every shipping script — transport and hub — runs cleanly under the
/// runtime rank checker.
#[test]
fn shipping_scripts_pass_the_runtime_checker() {
    for (name, script) in locks::transport_threads(&Mutations::NONE)
        .into_iter()
        .chain(locks::link_threads())
    {
        let result = panic_message(move || run_script(&script));
        assert!(result.is_none(), "script {name} tripped the checker: {result:?}");
    }
    for (name, script) in [
        ("hub_rpc", locks::hub_rpc()),
        ("hub_welcome_block", locks::hub_welcome_block()),
        ("condemn", locks::condemn()),
        ("register_link", locks::register_link()),
    ] {
        let result = panic_message(move || run_script(&script));
        assert!(result.is_none(), "script {name} tripped the checker: {result:?}");
    }
}

/// The PR 6 inversion, expressed as its mutated script, trips the same
/// runtime checker the model flags it with — model and runtime agree
/// on what a violation is.
#[test]
fn mutated_diagnosis_script_trips_the_runtime_checker() {
    let script = locks::recv_timeout_diagnosis(&Mutations {
        diagnose_under_mailbox: true,
        ..Mutations::NONE
    });
    let msg = panic_message(move || run_script(&script))
        .expect("the mutated diagnosis script must panic");
    assert!(msg.contains("lock-order violation"), "{msg}");
}

/// Cross-family nesting ending at the shared `Health` leaf is legal
/// from either family (it outranks everything).
#[test]
fn health_leaf_nests_under_any_family() {
    let clients = Mutex::new(LockRank::HubClients, ());
    let health = Mutex::new(LockRank::Health, ());
    {
        let _c = clients.lock(LockRank::HubClients);
        let _h = health.lock(LockRank::Health);
    }
    let mail = Mutex::new(LockRank::ChannelMail, ());
    let _m = mail.lock(LockRank::ChannelMail);
    let _h = health.lock(LockRank::Health);
}
