//! An HTTP/1.1 subset (paper §3, RFC 2068 era).
//!
//! NeST's HTTP handler supports anonymous `GET` (file retrieval), `PUT`
//! (file storage), `HEAD` (stat) and `DELETE`, which is the slice of HTTP a
//! 2002 storage appliance needed. Responses are `Connection: close`-free:
//! persistent connections with explicit `Content-Length`, one request per
//! round trip.

pub mod client;
mod codec;

pub use client::HttpClient;
pub use codec::{
    render_response_head, status_for_error, HttpMethod, HttpRequestHead, HttpResponseHead, CONTINUE,
};
