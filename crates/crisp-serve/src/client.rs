//! Blocking client for the `crisp-serve` daemon.
//!
//! One [`Client`] wraps one TCP connection and exchanges one
//! request/response pair per call. The daemon handles each connection on
//! its own thread, so long blocking calls ([`Client::wait`],
//! [`Client::shutdown`] with drain) do not stall other clients.

use crate::proto::{
    read_frame, send_request, ErrorCode, JobSpec, JobStatus, Outcome, ProtoError, Request, Response,
};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The daemon's reply violated the wire protocol.
    Proto(ProtoError),
    /// The daemon answered with a structured error.
    Server {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The daemon answered with a response of the wrong kind — a protocol
    /// break at the message (not frame) level.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response (wanted {what})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

impl ClientError {
    /// The server-side [`ErrorCode`], when the failure was a structured
    /// server error.
    #[must_use]
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A blocking connection to a `crisp-serve` daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        send_request(&mut self.stream, req)?;
        let (kind, payload) = read_frame(&mut self.stream)?;
        let resp = Response::decode(kind, &payload)?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Server { code, message });
        }
        Ok(resp)
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    ///
    /// Admission refusals surface as [`ClientError::Server`] with
    /// [`ErrorCode::Rejected`] / [`ErrorCode::QuotaExceeded`] /
    /// [`ErrorCode::ShuttingDown`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        match self.call(&Request::Submit(spec.clone()))? {
            Response::Submitted { job } => Ok(job),
            _ => Err(ClientError::Unexpected("Submitted")),
        }
    }

    /// One job's current status.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for bad ids; transport errors otherwise.
    pub fn status(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        match self.call(&Request::Status { job })? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Status")),
        }
    }

    /// Every job's status, ascending by id.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn jobs(&mut self) -> Result<Vec<JobStatus>, ClientError> {
        match self.call(&Request::Jobs)? {
            Response::Jobs(list) => Ok(list),
            _ => Err(ClientError::Unexpected("Jobs")),
        }
    }

    /// Cancel a job (bump its generation counter). Returns the job's
    /// status at the moment of the cancel — a still-`Running` job
    /// transitions at its next interrupt-interval boundary.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::AlreadyTerminal`] when the job already ended (a
    /// second cancel of the same job lands here).
    pub fn cancel(&mut self, job: u64) -> Result<JobStatus, ClientError> {
        match self.call(&Request::Cancel { job })? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Status")),
        }
    }

    /// Fetch a terminal job's result.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotTerminal`] while the job is still live.
    pub fn result(&mut self, job: u64) -> Result<Outcome, ClientError> {
        match self.call(&Request::Result { job })? {
            Response::Result(o) => Ok(o),
            _ => Err(ClientError::Unexpected("Result")),
        }
    }

    /// Block until the job is terminal (or `timeout_ms` elapses; 0 uses
    /// the server default). Returns the then-current status — check
    /// [`JobState::terminal`](crate::proto::JobState::terminal) to
    /// distinguish completion from timeout.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for bad ids; transport errors otherwise.
    pub fn wait(&mut self, job: u64, timeout_ms: u64) -> Result<JobStatus, ClientError> {
        match self.call(&Request::Wait { job, timeout_ms })? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Status")),
        }
    }

    /// Block until the job is terminal, however long that takes: repeats
    /// [`Client::wait`] with `window_ms` per call (0 uses the server
    /// default) while the job is live.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for bad ids; transport errors otherwise.
    pub fn wait_terminal(&mut self, job: u64, window_ms: u64) -> Result<JobStatus, ClientError> {
        loop {
            let status = self.wait(job, window_ms)?;
            if status.state.terminal() {
                return Ok(status);
            }
        }
    }

    /// The service metrics snapshot as a JSON document (see
    /// [`metrics_json`](crate::metrics::metrics_json) for the schema).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { json } => Ok(json),
            _ => Err(ClientError::Unexpected("Metrics")),
        }
    }

    /// Stop the daemon. With `drain`, running jobs are parked via
    /// emergency checkpoints and the queue is persisted; the call returns
    /// once the drain completes.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown(&mut self, drain: bool) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown { drain })? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("ShuttingDown")),
        }
    }

    /// Wait for the job, then fetch its result — the common
    /// submit-and-collect sequence.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotTerminal`] when the wait timed out first.
    pub fn wait_result(&mut self, job: u64, timeout_ms: u64) -> Result<Outcome, ClientError> {
        self.wait(job, timeout_ms)?;
        self.result(job)
    }
}
