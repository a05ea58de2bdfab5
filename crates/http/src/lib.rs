//! # dcdb-http
//!
//! A minimal HTTP/1.1 stack for DCDB's RESTful APIs (paper §5.3): Pushers
//! expose configuration, plugin start/stop/reload and their sensor caches
//! over HTTPs; Collect Agents expose an analogous cache API.  This crate
//! provides just enough substrate for those endpoints, built from scratch:
//!
//! * [`json`] — a small JSON value type with writer and parser,
//! * [`mod@serve`] — the blocking connection runtime (one accept loop, one
//!   thread per connection, stopped by a socket shutdown) under both this
//!   server and the MQTT broker,
//! * [`server`] — an HTTP/1.1 server with request parsing,
//! * [`router`] — path routing with `:param` captures,
//! * [`client`] — a tiny blocking HTTP client (used by the REST plugin and
//!   in tests).
//!
//! TLS is out of scope (the paper's HTTPs termination is orthogonal to the
//! framework logic and would require a crypto dependency).

pub mod client;
pub mod json;
pub mod router;
pub mod serve;
pub mod server;

pub use json::Json;
pub use router::Router;
pub use serve::{serve, Server};
pub use server::{HttpServer, Method, Request, Response, StatusCode};
