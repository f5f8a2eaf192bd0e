//! # mif-server — the message-passing service front-end
//!
//! PR-5/6 made the engine thread-safe; this crate makes it a *service*.
//! Simulated clients submit framed requests (create / open / write /
//! read / sync / close) carrying an explicit `(client_id, seq_no)` pair
//! over bounded queues into worker shards that drive
//! [`mif_core::ConcurrentFs`]. Three properties define the protocol —
//! `docs/SERVER.md` is the full contract:
//!
//! * **Idempotent replay.** The [`session`] table records, per client,
//!   the last applied seq_no and a bounded cache of recent replies. A
//!   duplicate (a re-send after a lost ack, a client restart, a dup
//!   storm) is answered with the *original* result without touching the
//!   engine: at-least-once delivery, exactly-once effects.
//! * **Durable-commit acks.** A mutating request is acknowledged only
//!   after the group-commit WAL's durable watermark passes its record —
//!   and never if the flush it rode was torn by a simulated power cut
//!   ([`server`] module docs walk the frozen-check ordering argument).
//! * **Pipelining with backpressure.** Clients keep a configurable
//!   window of requests in flight; full queues and full admission
//!   windows **park** the submitter, never drop and never reorder a
//!   client's requests.
//!
//! Layering: the server's locks ([`mif_alloc::lockorder::LockClass`]
//! ranks `ServerQueue` and `ServerSession`) sit strictly *above* every
//! engine lock and are never held across an engine call, so the service
//! layer cannot extend the engine's lock graph into a cycle.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mif_server::{ClientConn, Op, Server, ServerConfig};
//! use mif_core::{ConcurrentFs, FsConfig};
//! use mif_alloc::PolicyKind;
//!
//! let fs = ConcurrentFs::new(FsConfig::with_policy(PolicyKind::OnDemand, 2));
//! let server = Server::start(fs, ServerConfig::default());
//!
//! let mut client = ClientConn::connect(Arc::clone(&server), 1, 8, false);
//! let create = client.submit(Op::Create { name: "a.dat".into(), size_hint_blocks: None }).unwrap();
//! client.drain();
//! let handle = client.handle_from(create).unwrap();
//! client.submit(Op::Write { handle, stream: 0, offset: 0, len: 8 }).unwrap();
//! client.submit(Op::Sync).unwrap();
//! client.drain();
//! assert!(client.replies().iter().all(|r| r.status.ok()));
//!
//! // By the ack contract, the write's WAL record is already durable.
//! assert!(server.fs().wal_durable_watermark() >= 1);
//! server.shutdown();
//! ```

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use client::ClientConn;
pub use protocol::{
    decode_request, encode_request, encode_request_into, ClientId, FrameError, Handle, Op, Reply,
    Request, SeqNo, Status, MAX_NAME_BYTES,
};
pub use queue::{BoundedQueue, FrameBatch};
pub use server::{Server, ServerConfig, ServerStats, SubmitError};
pub use session::{Dispatch, Session, SessionTable};
