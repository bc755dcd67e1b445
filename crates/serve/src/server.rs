//! The TCP front end: one line-delimited `netan.job.v1` frame per
//! message, one connection per submitter.
//!
//! A connection is a simple request loop: the client sends a frame, the
//! server answers. A `submit` frame answers with `accepted` and then
//! streams that job's `progress`/`retry` frames as its shards merge,
//! ending in exactly one `result` or `error` frame — only then does the
//! server read the connection's next frame, so one connection carries
//! one job at a time and concurrency comes from concurrent connections
//! (each connection gets its own thread; the shard pool underneath is
//! shared and bounded). A `shutdown` frame answers `bye`, gracefully
//! shuts the whole service down ([`ScreenService::shutdown`]
//! semantics: in-flight shards drain, checkpoints persist, remaining
//! jobs fail typed), and stops the accept loop.
//!
//! Unparseable frames are answered with a `rejected` frame carrying a
//! `bad_frame` error — the connection stays open, the service keeps
//! running; no input a client can send brings the process down. A frame
//! longer than [`MAX_FRAME_BYTES`] is rejected the same way, but then the
//! connection closes: the server stops reading it rather than buffer a
//! line that may never end.

use crate::job::{ClientFrame, ServerFrame, WireError};
use crate::service::{JobEvent, ScreenService, ServiceConfig};
use mixsig::cast::u64_from_usize;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The longest client frame the server reads, its newline included. A
/// `submit` frame is a few hundred bytes — a custom grid of thousands of
/// frequencies still fits many times over — and the cap bounds what one
/// connection can make the server buffer, in the spirit of
/// [`netan::json::MAX_DEPTH`].
pub const MAX_FRAME_BYTES: usize = 1 << 20;

struct Shared {
    service: ScreenService,
    addr: SocketAddr,
    closing: AtomicBool,
}

impl Shared {
    /// Flips the server into shutdown: drains the service (idempotent)
    /// and pokes the accept loop awake with a throwaway connection so
    /// it can observe the flag and exit.
    fn begin_shutdown(&self) {
        if !self.closing.swap(true, Ordering::SeqCst) {
            self.service.shutdown();
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running screening server: a [`ScreenService`] behind a TCP accept
/// loop. See the [module docs](self) for the connection protocol.
pub struct JobServer {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl JobServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free port — read it back
    /// with [`addr`](Self::addr)) and starts the service and accept
    /// loop.
    ///
    /// # Errors
    ///
    /// The bind or local-address lookup failure, verbatim.
    pub fn start(addr: impl ToSocketAddrs, config: ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: ScreenService::start(config),
            addr: local,
            closing: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Blocks until the server has shut down — either a client sent a
    /// `shutdown` frame or [`shutdown`](Self::shutdown) was called.
    pub fn wait(&self) {
        let handle = self
            .accept
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// Server-side graceful shutdown — the same drain-and-refuse path a
    /// client `shutdown` frame takes. Blocks until complete. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.wait();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.closing.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = serve_connection(&shared, stream);
                });
            }
            Err(_) => {
                // Transient accept failures (connection reset before
                // accept, fd pressure) do not stop the server.
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn send(writer: &mut TcpStream, frame: &ServerFrame) -> io::Result<()> {
    let mut line = frame.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    loop {
        frame.clear();
        // One byte past the cap is enough to tell an over-long frame.
        let read = (&mut reader)
            .take(u64_from_usize(MAX_FRAME_BYTES) + 1)
            .read_until(b'\n', &mut frame)?;
        if read == 0 {
            return Ok(());
        }
        if frame.len() > MAX_FRAME_BYTES {
            return send(
                &mut writer,
                &ServerFrame::Rejected {
                    error: WireError::BadFrame {
                        message: format!(
                            "frame exceeds {MAX_FRAME_BYTES} bytes; closing the connection"
                        ),
                    },
                },
            );
        }
        let line = std::str::from_utf8(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .trim();
        if line.is_empty() {
            continue;
        }
        match ClientFrame::parse(line) {
            Err(e) => send(
                &mut writer,
                &ServerFrame::Rejected {
                    error: WireError::BadFrame {
                        message: e.to_string(),
                    },
                },
            )?,
            Ok(ClientFrame::Shutdown) => {
                send(&mut writer, &ServerFrame::Bye)?;
                shared.begin_shutdown();
                return Ok(());
            }
            Ok(ClientFrame::Submit(request)) => {
                let shards = request.shard_count();
                match shared.service.submit(*request) {
                    Err(e) => send(
                        &mut writer,
                        &ServerFrame::Rejected {
                            error: WireError::from(&e),
                        },
                    )?,
                    Ok((job, events)) => {
                        send(&mut writer, &ServerFrame::Accepted { job, shards })?;
                        while let Ok(event) = events.recv() {
                            match event {
                                JobEvent::Progress {
                                    seed_start,
                                    seed_end,
                                    done,
                                    total,
                                    devices,
                                    spent,
                                    resumed,
                                } => send(
                                    &mut writer,
                                    &ServerFrame::Progress {
                                        job,
                                        seed_start,
                                        seed_end,
                                        done,
                                        total,
                                        devices,
                                        spent_s: spent.value(),
                                        resumed,
                                    },
                                )?,
                                JobEvent::Retry {
                                    seed_start,
                                    seed_end,
                                    message,
                                } => send(
                                    &mut writer,
                                    &ServerFrame::Retry {
                                        job,
                                        seed_start,
                                        seed_end,
                                        message,
                                    },
                                )?,
                                JobEvent::Done(report) => {
                                    send(&mut writer, &ServerFrame::Finished { job, report })?;
                                    break;
                                }
                                JobEvent::Failed(e) => {
                                    send(
                                        &mut writer,
                                        &ServerFrame::Error {
                                            job,
                                            error: WireError::from(&e),
                                        },
                                    )?;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
