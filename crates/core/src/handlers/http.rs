//! The HTTP protocol handler (anonymous access only, per the paper).

use crate::dispatcher::{Dispatcher, LimitedStreamSource};
use crate::session::{Await, SessionCtx};
use nest_proto::http::{
    render_response_head, status_for_error, HttpMethod, HttpRequestHead, HttpResponseHead, CONTINUE,
};
use nest_proto::request::{NestError, NestRequest, NestResponse};
use nest_storage::Principal;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::Arc;

const PROTOCOL: &str = "http";

/// Serves one persistent HTTP connection until close, drain, or idle reap.
pub fn handle_conn(
    dispatcher: &Arc<Dispatcher>,
    mut stream: TcpStream,
    ctx: &SessionCtx,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let who = Principal::anonymous();
    loop {
        match ctx.await_request(&stream)? {
            Await::Ready => {}
            _ => return Ok(()),
        }
        let Some(head) = HttpRequestHead::read(&mut stream)? else {
            return Ok(());
        };
        match head.method {
            HttpMethod::Get if head.path == "/nest/stats" => {
                // The monitoring endpoint: flat `name value` text lines,
                // served before any storage-manager admission so it works
                // without a lot and never appears in transfer statistics.
                let body = dispatcher.metrics_snapshot().render_text();
                let resp = HttpResponseHead::with_length(200, "OK", body.len() as u64);
                stream.write_all(render_response_head(&resp).as_bytes())?;
                stream.write_all(body.as_bytes())?;
            }
            HttpMethod::Get => {
                match dispatcher.admit_get(&who, PROTOCOL, &head.path) {
                    Err(NestError::Invalid) => {
                        // GET on a directory: serve a plain-text index, as
                        // 2002 file servers did.
                        match dispatcher.execute_sync(
                            &who,
                            PROTOCOL,
                            &NestRequest::ListDir {
                                path: head.path.clone(),
                                prefix: None,
                                delimiter: None,
                            },
                        ) {
                            NestResponse::OkText(names) => {
                                let mut body = String::new();
                                for name in names {
                                    body.push_str(&name);
                                    body.push('\n');
                                }
                                let resp =
                                    HttpResponseHead::with_length(200, "OK", body.len() as u64);
                                stream.write_all(render_response_head(&resp).as_bytes())?;
                                stream.write_all(body.as_bytes())?;
                            }
                            NestResponse::Error(e) => send_error(&mut stream, e)?,
                            _ => send_error(&mut stream, NestError::Internal)?,
                        }
                    }
                    Err(e) => send_error(&mut stream, e)?,
                    Ok((vpath, size, cached)) => {
                        // Header + first chunk leave in one writev; the
                        // rest of the body takes the sendfile fast path
                        // when the source can lend a raw window.
                        let resp = HttpResponseHead::with_length(200, "OK", size);
                        let head = render_response_head(&resp).into_bytes();
                        let sink = dispatcher.socket_sink(stream.try_clone()?, head);
                        dispatcher.transfer_get(&who, PROTOCOL, &vpath, size, cached, sink)?;
                    }
                }
            }
            HttpMethod::Head => {
                match dispatcher.execute_sync(
                    &who,
                    PROTOCOL,
                    &NestRequest::Stat {
                        path: head.path.clone(),
                    },
                ) {
                    NestResponse::OkSize(size) => {
                        let resp = HttpResponseHead::with_length(200, "OK", size);
                        stream.write_all(render_response_head(&resp).as_bytes())?;
                    }
                    NestResponse::Error(e) => send_error(&mut stream, e)?,
                    _ => send_error(&mut stream, NestError::Internal)?,
                }
            }
            HttpMethod::Put => {
                let Some(length) = head.content_length() else {
                    // 411 Length Required: we do not accept chunked bodies.
                    let resp = HttpResponseHead::with_length(411, "Length Required", 0);
                    stream.write_all(render_response_head(&resp).as_bytes())?;
                    continue;
                };
                match dispatcher.admit_put(&who, PROTOCOL, &head.path, Some(length)) {
                    Err(e) if head.expects_continue() => {
                        // The client holds its body back for a `100`
                        // that will not come: refuse and close.
                        send_error(&mut stream, e)?;
                        return Ok(());
                    }
                    Err(e) => {
                        // Must drain the body to keep the connection in sync.
                        drain(&mut stream, length)?;
                        send_error(&mut stream, e)?;
                    }
                    Ok(vpath) => {
                        if head.expects_continue() {
                            stream.write_all(CONTINUE)?;
                        }
                        let source =
                            Box::new(LimitedStreamSource::new(stream.try_clone()?, length));
                        match dispatcher.transfer_put(&who, PROTOCOL, &vpath, source, Some(length))
                        {
                            Ok(_) => {
                                let resp = HttpResponseHead::with_length(201, "Created", 0);
                                stream.write_all(render_response_head(&resp).as_bytes())?;
                            }
                            Err(e) if e.kind() == io::ErrorKind::StorageFull => {
                                send_error(&mut stream, NestError::NoSpace)?;
                                return Ok(()); // body may be half-read; drop conn
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
            HttpMethod::Delete => {
                match dispatcher.execute_sync(
                    &who,
                    PROTOCOL,
                    &NestRequest::Delete {
                        path: head.path.clone(),
                    },
                ) {
                    NestResponse::Ok => {
                        let resp = HttpResponseHead::with_length(204, "No Content", 0);
                        stream.write_all(render_response_head(&resp).as_bytes())?;
                    }
                    NestResponse::Error(e) => send_error(&mut stream, e)?,
                    _ => send_error(&mut stream, NestError::Internal)?,
                }
            }
        }
        stream.flush()?;
    }
}

fn send_error(stream: &mut TcpStream, e: NestError) -> io::Result<()> {
    let (status, reason) = status_for_error(e);
    let resp = HttpResponseHead::with_length(status, reason, 0);
    stream.write_all(render_response_head(&resp).as_bytes())
}

fn drain(stream: &mut TcpStream, length: u64) -> io::Result<()> {
    nest_proto::wire::copy_exact(stream, &mut io::sink(), length, 64 * 1024)
}
