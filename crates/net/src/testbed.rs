//! One-call local testbed: a soft switch plus N servers on loopback,
//! ready for clients — the real-socket analogue of the paper's rack.

use std::net::SocketAddr;

use netclone_core::NetCloneConfig;
use netclone_proto::Ipv4;

use crate::client::UdpClient;
use crate::openloop::OpenLoopClient;
use crate::server::{ServerHandle, UdpServerConfig};
use crate::shim::FaultPlan;
use crate::switch::{SoftSwitch, SwitchHandle};
use crate::work::WorkExecutor;

/// A running local testbed.
pub struct Testbed {
    switch: SoftSwitch,
    servers: Vec<ServerHandle>,
    next_cid: u16,
}

impl Testbed {
    /// Spawns a switch and `n_servers` servers with `workers` worker
    /// threads each, all registered and ready.
    pub fn spawn(
        cfg: NetCloneConfig,
        n_servers: u16,
        workers: usize,
        executor: WorkExecutor,
    ) -> std::io::Result<Testbed> {
        Self::spawn_faulty(cfg, n_servers, workers, executor, None, None)
    }

    /// [`Self::spawn`] with fault injection: every server worker runs the
    /// given [`FaultPlan`] between codec and socket, and server 0's
    /// worker `w` crashes (once, supervised) after serving `k` requests
    /// when `server_crash = Some((w, k))`.
    pub fn spawn_faulty(
        cfg: NetCloneConfig,
        n_servers: u16,
        workers: usize,
        executor: WorkExecutor,
        server_faults: Option<FaultPlan>,
        server_crash: Option<(usize, u64)>,
    ) -> std::io::Result<Testbed> {
        let switch = SoftSwitch::spawn(cfg)?;
        let handle = switch.handle();
        let mut servers = Vec::with_capacity(n_servers as usize);
        for sid in 0..n_servers {
            let server = ServerHandle::spawn(UdpServerConfig {
                sid,
                vip: Ipv4::server(sid),
                workers,
                executor: executor.clone(),
                switch_addr: switch.addr(),
                faults: server_faults.clone(),
                crash_worker: if sid == 0 { server_crash } else { None },
            })?;
            handle
                .register_server(sid, Ipv4::server(sid), server.addr())
                .map_err(std::io::Error::other)?;
            servers.push(server);
        }
        Ok(Testbed {
            switch,
            servers,
            next_cid: 0,
        })
    }

    /// The switch's socket address.
    pub fn switch_addr(&self) -> SocketAddr {
        self.switch.addr()
    }

    /// The switch control-plane handle.
    pub fn switch_handle(&self) -> SwitchHandle {
        self.switch.handle()
    }

    /// The running servers.
    pub fn servers(&self) -> &[ServerHandle] {
        &self.servers
    }

    /// Reserves `n` consecutive client ids, returning the first.
    fn take_cids(&mut self, n: usize) -> std::io::Result<u16> {
        let base = self.next_cid;
        self.next_cid = u16::try_from(n)
            .ok()
            .and_then(|n| base.checked_add(n))
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{n} more client ids after {base} overflow the id space"),
                )
            })?;
        Ok(base)
    }

    /// Binds and registers a new client.
    pub fn client(&mut self, seed: u64) -> std::io::Result<UdpClient> {
        let cid = self.take_cids(1)?;
        let handle = self.switch.handle();
        let client = UdpClient::bind(cid, self.switch.addr(), handle.num_groups(), 2, seed)?;
        handle
            .register_client(cid, client.vip(), client.addr()?)
            .map_err(std::io::Error::other)?;
        Ok(client)
    }

    /// Binds and registers an open-loop client with `workers` worker
    /// endpoints (consuming `workers` consecutive client ids).
    pub fn open_loop_client(&mut self, workers: usize) -> std::io::Result<OpenLoopClient> {
        let base_cid = self.take_cids(workers)?;
        let client = OpenLoopClient::bind_workers(base_cid, workers, self.switch.addr())?;
        let handle = self.switch.handle();
        for (cid, vip, sock) in client.endpoints()? {
            handle
                .register_client(cid, vip, sock)
                .map_err(std::io::Error::other)?;
        }
        Ok(client)
    }

    /// Shuts everything down, joining all threads.
    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
        self.switch.shutdown();
    }
}
