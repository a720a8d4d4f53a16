//! The Chirp protocol handler.

use crate::dispatcher::{Dispatcher, LimitedStreamSource};
use crate::session::{Await, SessionCtx};
use nest_proto::chirp::{format_response, parse_command, status_line, ChirpCommand};
use nest_proto::request::{NestError, NestRequest, NestResponse};
use nest_proto::wire::{read_line, write_line};
use nest_storage::Principal;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;

const PROTOCOL: &str = "chirp";

/// Serves one Chirp connection until QUIT, EOF, drain, or idle reap.
pub fn handle_conn(
    dispatcher: &Arc<Dispatcher>,
    mut stream: TcpStream,
    ctx: &SessionCtx,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut who = Principal::anonymous();
    loop {
        // Between requests: wait for bytes, the drain signal, or the idle
        // deadline (the session layer classifies the close from these).
        match ctx.await_request(&stream)? {
            Await::Ready => {}
            _ => return Ok(()),
        }
        let Some(line) = read_line(&mut stream)? else {
            return Ok(());
        };
        if line.is_empty() {
            continue;
        }
        match parse_command(&line) {
            None => {
                write_line(
                    &mut stream,
                    &status_line(&NestResponse::Error(NestError::BadRequest)),
                )?;
            }
            Some(ChirpCommand::Version) => {
                write_line(&mut stream, "0 nest-chirp/0.9")?;
            }
            Some(ChirpCommand::Stats) => {
                // Session-level, like `version`: rendered metrics lines.
                let text = dispatcher.metrics_snapshot().render_text();
                let lines: Vec<String> = text.lines().map(str::to_owned).collect();
                for out in format_response(&NestResponse::OkText(lines)) {
                    write_line(&mut stream, &out)?;
                }
            }
            Some(ChirpCommand::Auth(cred)) => match dispatcher.authenticate(&cred) {
                Ok(principal) => {
                    let user = principal.user.clone();
                    who = principal;
                    write_line(&mut stream, &format!("0 {}", user))?;
                }
                Err(_) => {
                    write_line(
                        &mut stream,
                        &status_line(&NestResponse::Error(NestError::Denied)),
                    )?;
                }
            },
            Some(ChirpCommand::Request(NestRequest::Quit)) => {
                write_line(&mut stream, "0 bye")?;
                return Ok(());
            }
            Some(ChirpCommand::Request(NestRequest::Get { path })) => {
                handle_get(dispatcher, &who, &mut stream, &path)?;
            }
            Some(ChirpCommand::Request(NestRequest::Put { path, size })) => {
                handle_put(dispatcher, &who, &mut stream, &path, size.unwrap_or(0))?;
            }
            Some(ChirpCommand::Request(NestRequest::ThirdParty { src, dst })) => {
                let resp = match dispatcher.third_party(&src, &dst) {
                    Ok(()) => NestResponse::Ok,
                    Err(e) => NestResponse::Error(e),
                };
                write_line(&mut stream, &status_line(&resp))?;
            }
            Some(ChirpCommand::Request(req)) => {
                let resp = dispatcher.execute_sync(&who, PROTOCOL, &req);
                for out in format_response(&resp) {
                    write_line(&mut stream, &out)?;
                }
            }
        }
    }
}

fn handle_get(
    dispatcher: &Arc<Dispatcher>,
    who: &Principal,
    stream: &mut TcpStream,
    path: &str,
) -> io::Result<()> {
    match dispatcher.admit_get(who, PROTOCOL, path) {
        Err(e) => write_line(stream, &status_line(&NestResponse::Error(e))),
        Ok((vpath, size, cached)) => {
            // The `0 <size>` line leaves with the first body chunk in one
            // writev. The transfer manager moves the bytes; the handler
            // "stops listening on the client channel" until it finishes.
            // A mid-stream failure breaks the byte-count promise, so the
            // error closes the connection.
            let head = format!("0 {size}\r\n").into_bytes();
            let sink = dispatcher.socket_sink(stream.try_clone()?, head);
            dispatcher
                .transfer_get(who, PROTOCOL, &vpath, size, cached, sink)
                .map(|_| ())
        }
    }
}

fn handle_put(
    dispatcher: &Arc<Dispatcher>,
    who: &Principal,
    stream: &mut TcpStream,
    path: &str,
    size: u64,
) -> io::Result<()> {
    match dispatcher.admit_put(who, PROTOCOL, path, Some(size)) {
        Err(e) => write_line(stream, &status_line(&NestResponse::Error(e))),
        Ok(vpath) => {
            write_line(stream, "0 ready")?;
            let source = Box::new(LimitedStreamSource::new(stream.try_clone()?, size));
            match dispatcher.transfer_put(who, PROTOCOL, &vpath, source, Some(size)) {
                Ok(_) => write_line(stream, &status_line(&NestResponse::Ok)),
                Err(e) if e.kind() == io::ErrorKind::StorageFull => write_line(
                    stream,
                    &status_line(&NestResponse::Error(NestError::NoSpace)),
                ),
                Err(_) => write_line(
                    stream,
                    &status_line(&NestResponse::Error(NestError::Internal)),
                ),
            }
        }
    }
}
