//! The FTP and GridFTP protocol handler.
//!
//! One handler serves both: the GridFTP listener sets `gridftp: true`,
//! enabling the `AUTH GSSAPI`/`ADAT` handshake, `MODE E` extended block
//! mode, and parallel data streams. The plain FTP listener allows only
//! anonymous stream-mode sessions, matching the paper's configuration.

use crate::dispatcher::{Dispatcher, StreamSource};
use crate::session::{Await, SessionCtx};
use nest_proto::ftp::{format_pasv_reply, parse_command, FtpCommand, FtpReply};
use nest_proto::gridftp::modee::{recv_striped, OffsetSink, DESC_EOD, DESC_EOF};
use nest_proto::gridftp::write_block;
use nest_proto::gsi::Credential;
use nest_proto::request::{NestError, NestRequest, NestResponse};
use nest_proto::wire::{read_line, write_line};
use nest_storage::{Principal, StorageManager, VPath};
use nest_transfer::flow::DataSink;
use parking_lot::Mutex;
use std::io::{self, Write};
use std::net::{SocketAddrV4, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Session {
    who: Principal,
    logged_in: bool,
    cwd: VPath,
    pasv: Option<TcpListener>,
    port_addr: Option<SocketAddrV4>,
    rnfr: Option<String>,
    mode_e: bool,
    parallelism: u32,
    gridftp: bool,
    awaiting_adat: bool,
}

impl Session {
    fn protocol(&self) -> &'static str {
        if self.gridftp {
            "gridftp"
        } else {
            "ftp"
        }
    }

    fn resolve(&self, arg: &str) -> Result<String, NestError> {
        self.cwd
            .join(arg)
            .map(|p| p.to_string())
            .map_err(|_| NestError::BadRequest)
    }
}

/// Serves one FTP (or GridFTP, when `gridftp`) control connection.
pub fn handle_conn(
    dispatcher: &Arc<Dispatcher>,
    mut stream: TcpStream,
    gridftp: bool,
    ctx: &SessionCtx,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut session = Session {
        who: Principal::anonymous(),
        logged_in: false,
        cwd: VPath::root(),
        pasv: None,
        port_addr: None,
        rnfr: None,
        mode_e: false,
        parallelism: 1,
        gridftp,
        awaiting_adat: false,
    };
    reply(&mut stream, 220, "NeST FTP service ready")?;
    loop {
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
        let cmd = parse_command(&line);
        if matches!(cmd, FtpCommand::Quit) {
            reply(&mut stream, 221, "Goodbye")?;
            return Ok(());
        }
        handle_command(dispatcher, &mut session, &mut stream, cmd)?;
    }
}

fn reply(stream: &mut TcpStream, code: u16, text: &str) -> io::Result<()> {
    write_line(stream, &FtpReply::new(code, text).to_string())
}

fn reply_error(stream: &mut TcpStream, e: NestError) -> io::Result<()> {
    let (code, text) = match e {
        NestError::Denied => (550, "Permission denied"),
        NestError::NotFound => (550, "No such file or directory"),
        NestError::Exists => (553, "Already exists"),
        NestError::NoSpace => (452, "Insufficient storage space"),
        NestError::BadRequest => (501, "Syntax error in parameters"),
        NestError::Invalid => (550, "Requested action not taken"),
        NestError::Internal => (451, "Local error in processing"),
    };
    reply(stream, code, text)
}

fn handle_command(
    dispatcher: &Arc<Dispatcher>,
    s: &mut Session,
    stream: &mut TcpStream,
    cmd: FtpCommand,
) -> io::Result<()> {
    match cmd {
        FtpCommand::User(name) => {
            if name.eq_ignore_ascii_case("anonymous") || name.eq_ignore_ascii_case("ftp") {
                reply(stream, 331, "Anonymous login ok, send any password")
            } else if s.who.user == name {
                // GSI-authenticated GridFTP sessions may USER their mapped
                // name.
                s.logged_in = true;
                reply(stream, 230, "User logged in")
            } else {
                reply(stream, 530, "Only anonymous or GSI login is allowed")
            }
        }
        FtpCommand::Pass(_) => {
            s.logged_in = true;
            reply(stream, 230, "User logged in")
        }
        FtpCommand::Syst => reply(stream, 215, "UNIX Type: L8 (NeST)"),
        FtpCommand::Type(_) => reply(stream, 200, "Type set (always binary)"),
        FtpCommand::Noop => reply(stream, 200, "NOOP ok"),
        FtpCommand::Pwd => reply(stream, 257, &format!("\"{}\" is current directory", s.cwd)),
        FtpCommand::Cwd(dir) => match s.cwd.join(&dir) {
            Ok(p) => {
                // The directory must exist and be listable.
                match dispatcher.execute_sync(
                    &s.who,
                    s.protocol(),
                    &NestRequest::ListDir {
                        path: p.to_string(),
                        prefix: None,
                        delimiter: None,
                    },
                ) {
                    NestResponse::OkText(_) => {
                        s.cwd = p;
                        reply(stream, 250, "Directory changed")
                    }
                    NestResponse::Error(e) => reply_error(stream, e),
                    _ => reply_error(stream, NestError::Internal),
                }
            }
            Err(_) => reply_error(stream, NestError::BadRequest),
        },
        FtpCommand::Mode(m) => {
            if m.eq_ignore_ascii_case(&'E') {
                if s.gridftp {
                    s.mode_e = true;
                    reply(stream, 200, "MODE E ok")
                } else {
                    reply(stream, 504, "MODE E requires GridFTP")
                }
            } else {
                s.mode_e = false;
                reply(stream, 200, "MODE S ok")
            }
        }
        FtpCommand::OptsParallelism(n) => {
            if s.gridftp {
                s.parallelism = n.clamp(1, 16);
                reply(stream, 200, "Parallelism set")
            } else {
                reply(stream, 501, "OPTS not supported")
            }
        }
        FtpCommand::AuthGssapi => {
            if s.gridftp {
                s.awaiting_adat = true;
                reply(stream, 334, "ADAT must follow")
            } else {
                reply(stream, 534, "GSI not available on plain FTP")
            }
        }
        FtpCommand::Adat(blob) => {
            if !s.awaiting_adat {
                return reply(stream, 503, "ADAT without AUTH");
            }
            s.awaiting_adat = false;
            let wire = blob.replace('|', " ");
            match Credential::from_wire(&wire) {
                Some(cred) => match dispatcher.authenticate(&cred) {
                    Ok(principal) => {
                        let user = principal.user.clone();
                        s.who = principal;
                        s.logged_in = true;
                        reply(
                            stream,
                            235,
                            &format!("GSSAPI authentication succeeded for {}", user),
                        )
                    }
                    Err(_) => reply(stream, 535, "GSSAPI authentication failed"),
                },
                None => reply(stream, 501, "Malformed ADAT token"),
            }
        }
        FtpCommand::Pasv => {
            let listener = TcpListener::bind((local_ip(stream), 0))?;
            let addr = listener.local_addr()?;
            s.pasv = Some(listener);
            s.port_addr = None;
            write_line(stream, &format_pasv_reply(addr).to_string())
        }
        FtpCommand::Port(addr) => {
            s.port_addr = Some(addr);
            s.pasv = None;
            reply(stream, 200, "PORT ok")
        }
        FtpCommand::Mkd(dir) => {
            let resp = match s.resolve(&dir) {
                Ok(path) => {
                    dispatcher.execute_sync(&s.who, s.protocol(), &NestRequest::Mkdir { path })
                }
                Err(e) => NestResponse::Error(e),
            };
            match resp {
                NestResponse::Ok => reply(stream, 257, &format!("\"{}\" created", dir)),
                NestResponse::Error(e) => reply_error(stream, e),
                _ => reply_error(stream, NestError::Internal),
            }
        }
        FtpCommand::Rmd(dir) => simple(dispatcher, s, stream, &dir, |path| NestRequest::Rmdir {
            path,
        }),
        FtpCommand::Dele(path) => simple(dispatcher, s, stream, &path, |path| {
            NestRequest::Delete { path }
        }),
        FtpCommand::Size(path) => {
            let resp = match s.resolve(&path) {
                Ok(path) => {
                    dispatcher.execute_sync(&s.who, s.protocol(), &NestRequest::Stat { path })
                }
                Err(e) => NestResponse::Error(e),
            };
            match resp {
                NestResponse::OkSize(size) => reply(stream, 213, &size.to_string()),
                NestResponse::Error(e) => reply_error(stream, e),
                _ => reply_error(stream, NestError::Internal),
            }
        }
        FtpCommand::Rnfr(path) => {
            s.rnfr = Some(path);
            reply(stream, 350, "RNFR ok, send RNTO")
        }
        FtpCommand::Rnto(to) => {
            let Some(from) = s.rnfr.take() else {
                return reply(stream, 503, "RNTO without RNFR");
            };
            let resp = match (s.resolve(&from), s.resolve(&to)) {
                (Ok(from), Ok(to)) => {
                    dispatcher.execute_sync(&s.who, s.protocol(), &NestRequest::Rename { from, to })
                }
                _ => NestResponse::Error(NestError::BadRequest),
            };
            match resp {
                NestResponse::Ok => reply(stream, 250, "Rename successful"),
                NestResponse::Error(e) => reply_error(stream, e),
                _ => reply_error(stream, NestError::Internal),
            }
        }
        FtpCommand::List(path) | FtpCommand::Nlst(path) => {
            handle_list(dispatcher, s, stream, path.as_deref())
        }
        FtpCommand::Retr(path) => handle_retr(dispatcher, s, stream, &path),
        FtpCommand::Stor(path) => handle_stor(dispatcher, s, stream, &path),
        FtpCommand::Spas => reply(stream, 502, "SPAS not implemented; use PASV"),
        FtpCommand::Quit => unreachable!("handled by caller"),
        FtpCommand::Unknown(_) => reply(stream, 502, "Command not implemented"),
    }
}

fn simple(
    dispatcher: &Arc<Dispatcher>,
    s: &mut Session,
    stream: &mut TcpStream,
    arg: &str,
    build: impl Fn(String) -> NestRequest,
) -> io::Result<()> {
    let resp = match s.resolve(arg) {
        Ok(path) => dispatcher.execute_sync(&s.who, s.protocol(), &build(path)),
        Err(e) => NestResponse::Error(e),
    };
    match resp {
        NestResponse::Ok => reply(stream, 250, "Requested action okay"),
        NestResponse::Error(e) => reply_error(stream, e),
        _ => reply_error(stream, NestError::Internal),
    }
}

/// The IP clients should connect back to for passive data connections.
fn local_ip(stream: &TcpStream) -> std::net::IpAddr {
    stream
        .local_addr()
        .map(|a| a.ip())
        .unwrap_or_else(|_| std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST))
}

/// Opens the session's data connection(s): accept on the PASV listener or
/// connect out to the PORT address.
fn open_data(s: &mut Session, n: usize) -> io::Result<Vec<TcpStream>> {
    if let Some(listener) = s.pasv.take() {
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conns = Vec::with_capacity(n);
        while conns.len() < n {
            match listener.accept() {
                Ok((conn, _)) => {
                    conn.set_nonblocking(false)?;
                    conn.set_nodelay(true)?;
                    conns.push(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "data connection not established",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(conns)
    } else if let Some(addr) = s.port_addr {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            conns.push(conn);
        }
        Ok(conns)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotConnected,
            "no PASV or PORT data address",
        ))
    }
}

fn handle_list(
    dispatcher: &Arc<Dispatcher>,
    s: &mut Session,
    stream: &mut TcpStream,
    path: Option<&str>,
) -> io::Result<()> {
    let target = match path {
        Some(p) => match s.resolve(p) {
            Ok(t) => t,
            Err(e) => return reply_error(stream, e),
        },
        None => s.cwd.to_string(),
    };
    match dispatcher.execute_sync(
        &s.who,
        s.protocol(),
        &NestRequest::ListDir {
            path: target,
            prefix: None,
            delimiter: None,
        },
    ) {
        NestResponse::OkText(names) => {
            reply(stream, 150, "Opening data connection for listing")?;
            let mut data = match open_data(s, 1) {
                Ok(mut v) => v.remove(0),
                Err(_) => return reply(stream, 425, "Cannot open data connection"),
            };
            for name in names {
                write_line(&mut data, &name)?;
            }
            drop(data);
            reply(stream, 226, "Transfer complete")
        }
        NestResponse::Error(e) => reply_error(stream, e),
        _ => reply_error(stream, NestError::Internal),
    }
}

fn handle_retr(
    dispatcher: &Arc<Dispatcher>,
    s: &mut Session,
    stream: &mut TcpStream,
    path: &str,
) -> io::Result<()> {
    let resolved = match s.resolve(path) {
        Ok(p) => p,
        Err(e) => return reply_error(stream, e),
    };
    match dispatcher.admit_get(&s.who, s.protocol(), &resolved) {
        Err(e) => reply_error(stream, e),
        Ok((vpath, size, cached)) => {
            reply(
                stream,
                150,
                &format!("Opening data connection ({} bytes)", size),
            )?;
            let streams = match open_data(s, if s.mode_e { s.parallelism as usize } else { 1 }) {
                Ok(v) => v,
                Err(_) => return reply(stream, 425, "Cannot open data connection"),
            };
            let sink: Box<dyn DataSink> = if s.mode_e {
                Box::new(ModeESink::new(streams))
            } else {
                // Stream mode has no header on the data connection.
                dispatcher.socket_sink(streams.into_iter().next().unwrap(), Vec::new())
            };
            match dispatcher.transfer_get(&s.who, s.protocol(), &vpath, size, cached, sink) {
                Ok(_) => reply(stream, 226, "Transfer complete"),
                Err(_) => reply(stream, 426, "Connection closed; transfer aborted"),
            }
        }
    }
}

fn handle_stor(
    dispatcher: &Arc<Dispatcher>,
    s: &mut Session,
    stream: &mut TcpStream,
    path: &str,
) -> io::Result<()> {
    let resolved = match s.resolve(path) {
        Ok(p) => p,
        Err(e) => return reply_error(stream, e),
    };
    match dispatcher.admit_put(&s.who, s.protocol(), &resolved, None) {
        Err(e) => reply_error(stream, e),
        Ok(vpath) => {
            reply(stream, 150, "Ready to receive data")?;
            let streams = match open_data(s, if s.mode_e { s.parallelism as usize } else { 1 }) {
                Ok(v) => v,
                Err(_) => return reply(stream, 425, "Cannot open data connection"),
            };
            let result: io::Result<u64> = if s.mode_e {
                // MODE E blocks carry offsets and may arrive on any stream;
                // land them directly at their offsets through the storage
                // manager (admission and lot charging already happened).
                let sink: Arc<Mutex<dyn OffsetSink>> = Arc::new(Mutex::named(
                    "core.ftp.sink",
                    600,
                    BackendOffsetSink {
                        storage: Arc::clone(dispatcher.storage()),
                        who: s.who.clone(),
                        path: vpath.clone(),
                    },
                ));
                recv_striped(streams, sink)
            } else {
                let data = streams.into_iter().next().unwrap();
                let source = Box::new(StreamSource::new(data));
                dispatcher.transfer_put(&s.who, s.protocol(), &vpath, source, None)
            };
            match result {
                Ok(_) => reply(stream, 226, "Transfer complete"),
                Err(e) if e.kind() == io::ErrorKind::StorageFull => {
                    reply_error(stream, NestError::NoSpace)
                }
                Err(_) => reply(stream, 426, "Connection closed; transfer aborted"),
            }
        }
    }
}

/// A flow sink that stripes chunks across MODE E data streams.
struct ModeESink {
    streams: Vec<TcpStream>,
    offset: u64,
    turn: usize,
}

impl ModeESink {
    fn new(streams: Vec<TcpStream>) -> Self {
        Self {
            streams,
            offset: 0,
            turn: 0,
        }
    }
}

impl DataSink for ModeESink {
    fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        write_block(&mut self.streams[self.turn], 0, self.offset, data)?;
        self.offset += data.len() as u64;
        self.turn = (self.turn + 1) % self.streams.len();
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        let n = self.streams.len() as u64;
        write_block(&mut self.streams[0], DESC_EOF, n, &[])?;
        for stream in &mut self.streams {
            write_block(stream, DESC_EOD, 0, &[])?;
            stream.flush()?;
        }
        Ok(())
    }
}

/// Lands MODE E blocks at their offsets through the storage manager.
struct BackendOffsetSink {
    storage: Arc<StorageManager>,
    who: Principal,
    path: VPath,
}

impl OffsetSink for BackendOffsetSink {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.storage
            .write_chunk(&self.who, &self.path, offset, data)
            .map_err(|e| match e {
                nest_storage::StorageError::Lot(_) => {
                    io::Error::new(io::ErrorKind::StorageFull, e.to_string())
                }
                other => io::Error::other(other.to_string()),
            })
    }
}
