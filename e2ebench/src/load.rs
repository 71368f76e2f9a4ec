//! The open-loop load generator.
//!
//! Requests arrive on a fixed schedule: request `g` of a phase is due
//! `g / rate` seconds after the phase starts, and generator thread
//! `g % threads` sends it on its own connection. A request whose thread
//! was still waiting on its previous reply when it fell due is timed from
//! when it was due, so a stall of the program that delays later sends
//! counts against them. A request whose thread slept until it fell due is
//! timed from when it left, so the generator's own wake-up does not
//! count. How late each send left is recorded separately. A thread sends
//! its next request only after the previous reply, so at most `threads`
//! requests are outstanding.

use std::time::{Duration, Instant};

use af_fleet::FleetRouter;
use af_serve::Client;

use crate::check::Reply;
use crate::trace::{append_spans, Span, Tracer};
use crate::util::{bits_hash, Rng};

/// Where a generator thread sends its requests.
pub enum Target<'a> {
    Http(Client),
    Router(&'a FleetRouter),
}

impl Target<'_> {
    fn infer(&mut self, id: &str, input: &[f32]) -> Result<Vec<f32>, String> {
        match self {
            Target::Http(client) => client.infer(id, input).map_err(|e| {
                // Keep the connection usable for the next request.
                let _ = client.reconnect();
                e.to_string()
            }),
            Target::Router(router) => router.infer(id, input.to_vec()).map_err(|e| e.to_string()),
        }
    }

    fn stats(&mut self) -> Option<Result<String, String>> {
        match self {
            Target::Http(client) => Some(client.stats_json().map_err(|e| e.to_string())),
            Target::Router(_) => None,
        }
    }
}

/// A seeded request stream: which variant and which pooled input each
/// request uses.
#[derive(Debug, Clone)]
pub struct Stream {
    pub ids: Vec<String>,
    pub inputs: Vec<Vec<f32>>,
    picks: Vec<(u16, u16)>,
}

impl Stream {
    pub fn new(seed: u64, ids: Vec<String>, in_dim: usize, pool: usize) -> Stream {
        let mut rng = Rng::new(seed);
        let inputs = (0..pool)
            .map(|_| (0..in_dim).map(|_| rng.feature()).collect())
            .collect();
        // Every block of `ids.len()` requests asks each variant once, in
        // a seeded order, so every seed sends the same variant mix.
        let mut picks = Vec::with_capacity(4096);
        while picks.len() < 4096 {
            let mut block: Vec<u16> = (0..ids.len() as u16).collect();
            for k in (1..block.len()).rev() {
                block.swap(k, rng.below(k + 1));
            }
            picks.extend(block.into_iter().map(|v| (v, rng.below(pool) as u16)));
        }
        Stream { ids, inputs, picks }
    }

    pub fn pick(&self, g: u64) -> (u16, u16) {
        self.picks[(g % self.picks.len() as u64) as usize]
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub latency_us: Vec<f64>,
    /// Latencies of the requests that were traced (trace runs only).
    pub traced_latency_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    pub replies: Vec<Reply>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub stats_docs: Vec<String>,
    /// A `load.request` span per traced request (ids 1..=len).
    pub spans: Vec<Span>,
}

impl PhaseOut {
    pub fn merge(&mut self, other: PhaseOut) {
        self.latency_us.extend(other.latency_us);
        self.traced_latency_us.extend(other.traced_latency_us);
        self.lateness_us.extend(other.lateness_us);
        self.replies.extend(other.replies);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.stats_docs.extend(other.stats_docs);
        append_spans(&mut self.spans, &other.spans);
    }
}

/// Phase settings.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub rate: f64,
    pub seconds: f64,
    /// Offset into the request stream, so phases use different picks.
    pub first: u64,
    /// The trace origin: when set, every other block of each thread's
    /// requests is recorded as a span, and its latency includes the
    /// recording (the rest measure the untraced latency).
    pub trace: Option<Instant>,
    /// Thread 0 fetches `GET /stats` this often.
    pub stats_every: Option<Duration>,
}

/// Run one open-loop phase over `targets` (one generator thread each).
pub fn run_phase(targets: &mut [Target<'_>], stream: &Stream, phase: Phase) -> PhaseOut {
    let threads = targets.len() as u64;
    let total = (phase.rate * phase.seconds).round() as u64;
    let start = Instant::now() + Duration::from_millis(2);
    let mut out = PhaseOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter_mut()
            .enumerate()
            .map(|(t, target)| {
                s.spawn(move || {
                    crate::util::tight_timer_slack();
                    let mut mine = PhaseOut::default();
                    let mut tracer = phase.trace.map(Tracer::new);
                    let mut next_stats = phase.stats_every.filter(|_| t == 0).map(|p| start + p);
                    let mut g = t as u64;
                    while g < total {
                        let due = start + Duration::from_secs_f64(g as f64 / phase.rate);
                        if let Some(at) = next_stats.filter(|&at| at <= due) {
                            match target.stats() {
                                Some(Ok(doc)) => mine.stats_docs.push(doc),
                                Some(Err(e)) => mine.errors.push(format!("GET /stats: {e}")),
                                None => {}
                            }
                            next_stats = Some(at + phase.stats_every.expect("poll period"));
                        }
                        let now = Instant::now();
                        let slept = now < due;
                        if slept {
                            std::thread::sleep(due - now);
                        }
                        let (v, i) = stream.pick(phase.first + g);
                        let (id, input) = (&stream.ids[v as usize], &stream.inputs[i as usize]);
                        let traced = tracer.as_mut().filter(|_| (g / threads) % 2 == 1);
                        let is_traced = traced.is_some();
                        let sent = Instant::now();
                        let result = match traced {
                            Some(tr) => {
                                let req = phase.first + g;
                                tr.span("load.request", 0, req, || target.infer(id, input)).0
                            }
                            None => target.infer(id, input),
                        };
                        let done = Instant::now();
                        mine.attempted += 1;
                        let from = if slept { sent } else { due };
                        let latency = done.duration_since(from).as_secs_f64() * 1e6;
                        mine.lateness_us
                            .push(sent.duration_since(due).as_secs_f64() * 1e6);
                        match result {
                            Ok(y) => {
                                mine.replies.push(Reply {
                                    variant: v,
                                    input: i,
                                    hash: bits_hash(&y),
                                });
                                if is_traced {
                                    mine.traced_latency_us.push(latency);
                                } else {
                                    mine.latency_us.push(latency);
                                }
                            }
                            Err(e) => {
                                mine.failed += 1;
                                if mine.errors.len() < 10 {
                                    mine.errors.push(format!("{id}: {e}"));
                                }
                            }
                        }
                        g += threads;
                    }
                    if let Some(tr) = tracer {
                        mine.spans = tr.into_spans();
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            out.merge(h.join().expect("generator thread panicked"));
        }
    });
    out
}
