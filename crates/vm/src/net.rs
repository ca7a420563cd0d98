//! Simulated datagram network shared by several machines.
//!
//! The paper's distributed experiments (PBFT, §7.1 and §7.3, Figure 3) inject
//! faults into `sendto`/`recvfrom` at the library boundary; the network
//! itself only needs to move datagrams between simulated processes. The
//! network is therefore reliable and ordered by default — all message loss in
//! the experiments comes from LFI's injections, as in the paper — but a
//! drop probability can be configured for studies that want an unreliable
//! substrate independent of LFI.
//!
//! Every datagram carries its send time, the sender's virtual clock, so a
//! receiver can keep causal time: a machine's clock never reads earlier
//! than the send time of a datagram it received. A socket may carry a
//! receive deadline (the `rcvdeadline` syscall). `recvfrom` on such a
//! socket blocks its thread while the queue is empty, until a datagram is
//! queued for it or virtual time passes the deadline; a harness that runs
//! several machines (the bft-lite cluster) moves time forward from one
//! such event to the next instead of running idle polls. A socket without
//! a deadline keeps the non-blocking `EAGAIN` of an empty queue.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mem::IntMap;

/// A datagram in flight or queued at a destination port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node id.
    pub from_node: i64,
    /// Sending port (0 when unknown).
    pub from_port: i64,
    /// Destination node id.
    pub to_node: i64,
    /// Destination port.
    pub to_port: i64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Virtual time of the send, in the sender's clock ticks (0 for
    /// traffic the harness injects from outside any machine).
    pub sent_at: u64,
}

/// Statistics kept by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams accepted from senders.
    pub sent: u64,
    /// Datagrams delivered into a destination queue.
    pub delivered: u64,
    /// Datagrams dropped by the configured loss probability.
    pub dropped: u64,
    /// Datagrams addressed to a node/port nobody bound.
    pub unroutable: u64,
}

/// The shared datagram network.
///
/// `SimNet` is `Clone` so machine snapshots can capture the network state
/// by value: a clone is a fully independent network with the same bound
/// endpoints, queued datagrams, RNG state and statistics.
#[derive(Debug, Clone)]
pub struct SimNet {
    queues: IntMap<(i64, i64), VecDeque<Datagram>>,
    drop_probability: f64,
    rng: StdRng,
    stats: NetStats,
}

impl SimNet {
    /// Create a reliable network (no drops) with a deterministic RNG seed.
    pub fn new(seed: u64) -> SimNet {
        SimNet {
            queues: IntMap::default(),
            drop_probability: 0.0,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
        }
    }

    /// Configure the probability that the network itself drops a datagram.
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_probability = p.clamp(0.0, 1.0);
    }

    /// Bind a (node, port) endpoint so datagrams can be queued for it.
    pub fn bind(&mut self, node: i64, port: i64) {
        self.queues.entry((node, port)).or_default();
    }

    /// Send a datagram. Returns `true` if it was delivered to a queue.
    pub fn send(&mut self, datagram: Datagram) -> bool {
        self.stats.sent += 1;
        if self.drop_probability > 0.0 && self.rng.gen_bool(self.drop_probability) {
            self.stats.dropped += 1;
            return false;
        }
        match self.queues.get_mut(&(datagram.to_node, datagram.to_port)) {
            Some(queue) => {
                queue.push_back(datagram);
                self.stats.delivered += 1;
                true
            }
            None => {
                self.stats.unroutable += 1;
                false
            }
        }
    }

    /// Dequeue the next datagram for a (node, port), if any.
    pub fn recv(&mut self, node: i64, port: i64) -> Option<Datagram> {
        self.queues.get_mut(&(node, port))?.pop_front()
    }

    /// Number of datagrams currently queued for a (node, port).
    pub fn pending(&self, node: i64, port: i64) -> usize {
        self.queues.get(&(node, port)).map_or(0, |q| q.len())
    }

    /// Send time of the next datagram queued for a (node, port), if any.
    pub fn next_sent_at(&self, node: i64, port: i64) -> Option<u64> {
        self.queues.get(&(node, port))?.front().map(|d| d.sent_at)
    }

    /// Network statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

/// A cloneable handle to a shared [`SimNet`], held by each machine attached
/// to the network and by the test harness (which can inject workload traffic
/// directly, playing the role of an external client).
#[derive(Debug, Clone)]
pub struct NetHandle {
    inner: Arc<Mutex<SimNet>>,
}

impl NetHandle {
    /// Wrap a network in a shareable handle.
    pub fn new(net: SimNet) -> NetHandle {
        NetHandle {
            inner: Arc::new(Mutex::new(net)),
        }
    }

    /// Run a closure with exclusive access to the network.
    pub fn with<R>(&self, f: impl FnOnce(&mut SimNet) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Convenience: send a datagram.
    pub fn send(&self, datagram: Datagram) -> bool {
        self.with(|net| net.send(datagram))
    }

    /// Convenience: receive the next datagram for an endpoint.
    pub fn recv(&self, node: i64, port: i64) -> Option<Datagram> {
        self.with(|net| net.recv(node, port))
    }

    /// Convenience: bind an endpoint.
    pub fn bind(&self, node: i64, port: i64) {
        self.with(|net| net.bind(node, port));
    }

    /// Convenience: queued datagram count for an endpoint.
    pub fn pending(&self, node: i64, port: i64) -> usize {
        self.with(|net| net.pending(node, port))
    }

    /// Convenience: send time of the next datagram queued for an endpoint.
    pub fn next_sent_at(&self, node: i64, port: i64) -> Option<u64> {
        self.with(|net| net.next_sent_at(node, port))
    }

    /// Deep-copy the network into a new, independent handle. Unlike
    /// [`Clone`], which shares the underlying network, the forked handle has
    /// its own copy of every queue — sends and receives on one side are
    /// invisible to the other. Machine snapshots use this to capture the
    /// network state at the snapshot point.
    pub fn fork(&self) -> NetHandle {
        NetHandle::new(self.with(|net| net.clone()))
    }
}

impl Default for NetHandle {
    fn default() -> Self {
        NetHandle::new(SimNet::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram(from: i64, to: i64, port: i64, payload: &[u8]) -> Datagram {
        Datagram {
            from_node: from,
            from_port: 0,
            to_node: to,
            to_port: port,
            payload: payload.to_vec(),
            sent_at: 0,
        }
    }

    #[test]
    fn send_and_receive_in_order() {
        let mut net = SimNet::new(1);
        net.bind(1, 53);
        assert!(net.send(dgram(0, 1, 53, b"a")));
        assert!(net.send(dgram(0, 1, 53, b"b")));
        assert_eq!(net.pending(1, 53), 2);
        assert_eq!(net.recv(1, 53).unwrap().payload, b"a");
        assert_eq!(net.recv(1, 53).unwrap().payload, b"b");
        assert!(net.recv(1, 53).is_none());
    }

    #[test]
    fn the_next_send_time_is_the_queue_heads() {
        let mut net = SimNet::new(1);
        net.bind(1, 53);
        assert_eq!(net.next_sent_at(1, 53), None);
        net.send(Datagram {
            sent_at: 700,
            ..dgram(0, 1, 53, b"a")
        });
        net.send(Datagram {
            sent_at: 300,
            ..dgram(0, 1, 53, b"b")
        });
        assert_eq!(net.next_sent_at(1, 53), Some(700));
        assert_eq!(net.recv(1, 53).unwrap().sent_at, 700);
        assert_eq!(net.next_sent_at(1, 53), Some(300));
        assert_eq!(net.next_sent_at(2, 53), None);
    }

    #[test]
    fn unroutable_messages_are_counted() {
        let mut net = SimNet::new(1);
        assert!(!net.send(dgram(0, 9, 99, b"x")));
        assert_eq!(net.stats().unroutable, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn drop_probability_loses_roughly_that_fraction() {
        let mut net = SimNet::new(42);
        net.bind(1, 7);
        net.set_drop_probability(0.5);
        for _ in 0..1000 {
            net.send(dgram(0, 1, 7, b"m"));
        }
        let delivered = net.stats().delivered;
        assert!(
            (300..=700).contains(&delivered),
            "delivered {delivered} out of 1000 at p=0.5"
        );
        assert_eq!(net.stats().dropped + delivered, 1000);
    }

    #[test]
    fn zero_drop_probability_is_reliable() {
        let mut net = SimNet::new(3);
        net.bind(2, 1);
        for _ in 0..100 {
            assert!(net.send(dgram(0, 2, 1, b"m")));
        }
        assert_eq!(net.stats().delivered, 100);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn handle_shares_one_network() {
        let handle = NetHandle::new(SimNet::new(9));
        handle.bind(5, 10);
        let clone = handle.clone();
        clone.send(dgram(1, 5, 10, b"shared"));
        assert_eq!(handle.recv(5, 10).unwrap().payload, b"shared");
    }

    #[test]
    fn fork_captures_queues_independently() {
        let handle = NetHandle::new(SimNet::new(9));
        handle.bind(5, 10);
        handle.send(dgram(1, 5, 10, b"before"));

        let fork = handle.fork();
        // The fork sees the pre-fork datagram, but later traffic on either
        // side stays on that side.
        handle.send(dgram(1, 5, 10, b"after"));
        assert_eq!(fork.pending(5, 10), 1);
        assert_eq!(fork.recv(5, 10).unwrap().payload, b"before");
        assert!(fork.recv(5, 10).is_none());
        assert_eq!(handle.pending(5, 10), 2);
    }
}
