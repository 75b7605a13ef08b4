//! The host-speed calibration: a fixed BDD workload that shares no code
//! with covest, timed in-process and printed in seconds.
//!
//! A shared host runs the same program at very different speeds from one
//! minute to the next (2x swings were seen on a 2-vCPU KVM guest), and a
//! slow spell hits every CPU-bound process alike. `run.py` runs this
//! after every set-up and measured invocation and corrects the run's
//! median times for the host's speed (see `host_speedup` there), so the
//! gated metrics follow the program and not the host. It builds the
//! 9-queens BDD with its own unique table and ITE cache, the same kind
//! of work (hashing, pointer chasing, recursion) that dominates covest,
//! and it links nothing from the covest crates, so a change to the
//! program cannot move it. The build runs twice and only the second is
//! timed, so page faults on fresh memory stay out of the figure.

use std::time::Instant;

const FALSE: u32 = 0;
const TRUE: u32 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

struct Bdd {
    nodes: Vec<Node>,
    /// Open addressing over `nodes` indices; 0 is empty (node 0 is the
    /// terminal FALSE, never inserted).
    unique: Vec<u32>,
    cache: Vec<(u32, u32, u32, u32)>,
}

fn mix(a: u32, b: u32, c: u32) -> u64 {
    (u64::from(a).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(b).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ u64::from(c).wrapping_mul(0x94d0_49bb_1331_11eb))
    .rotate_left(29)
}

impl Bdd {
    fn new() -> Self {
        Bdd {
            nodes: Vec::new(),
            unique: Vec::new(),
            cache: vec![(u32::MAX, 0, 0, 0); 1 << 16],
        }
    }

    /// Empties the tables but keeps their memory, so a second build
    /// touches no fresh pages.
    fn clear(&mut self) {
        let terminal = |v| Node {
            var: u32::MAX,
            lo: v,
            hi: v,
        };
        self.nodes.clear();
        self.nodes.extend([terminal(FALSE), terminal(TRUE)]);
        if self.unique.is_empty() {
            self.unique = vec![0; 1 << 12];
        }
        self.unique.fill(0);
        self.cache.fill((u32::MAX, 0, 0, 0));
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let mask = self.unique.len() - 1;
        let mut slot = mix(var, lo, hi) as usize & mask;
        loop {
            match self.unique[slot] {
                0 => break,
                n if self.nodes[n as usize] == node => return n,
                _ => slot = (slot + 1) & mask,
            }
        }
        let n = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique[slot] = n;
        if self.nodes.len() * 2 > self.unique.len() {
            self.grow();
        }
        n
    }

    fn grow(&mut self) {
        let mut unique = vec![0u32; self.unique.len() * 2];
        let mask = unique.len() - 1;
        for (n, node) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = mix(node.var, node.lo, node.hi) as usize & mask;
            while unique[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            unique[slot] = n as u32;
        }
        self.unique = unique;
    }

    fn cofactors(&self, f: u32, var: u32) -> (u32, u32) {
        let n = self.nodes[f as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    fn ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
        match (f, g, h) {
            (TRUE, _, _) => return g,
            (FALSE, _, _) => return h,
            _ if g == h => return g,
            (_, TRUE, FALSE) => return f,
            _ => {}
        }
        let key = (mix(f, g, h) >> 48) as usize;
        let hit = self.cache[key];
        if (hit.0, hit.1, hit.2) == (f, g, h) {
            return hit.3;
        }
        let var = [f, g, h]
            .iter()
            .map(|&x| self.nodes[x as usize].var)
            .min()
            .expect("three operands");
        let (f0, f1) = self.cofactors(f, var);
        let (g0, g1) = self.cofactors(g, var);
        let (h0, h1) = self.cofactors(h, var);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(var, lo, hi);
        self.cache[key] = (f, g, h, r);
        r
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        self.ite(a, b, FALSE)
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        self.ite(a, TRUE, b)
    }

    fn not(&mut self, a: u32) -> u32 {
        self.ite(a, FALSE, TRUE)
    }
}

/// Builds the n-queens constraint, row-major variable order; returns the
/// number of nodes made, which is fixed for a given `n`.
fn queens(b: &mut Bdd, n: i32) -> usize {
    b.clear();
    let x: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| b.mk((i * n + j) as u32, FALSE, TRUE))
                .collect()
        })
        .collect();
    let at = |i: i32, j: i32| x[i as usize][j as usize];
    let mut all = TRUE;
    for i in 0..n {
        let mut row = FALSE;
        for j in 0..n {
            row = b.or(row, at(i, j));
        }
        all = b.and(all, row);
    }
    for i in 0..n {
        for j in 0..n {
            let mut free = TRUE;
            for k in 0..n {
                for l in 0..n {
                    let attacks =
                        (k, l) != (i, j) && (k == i || l == j || (k - i).abs() == (l - j).abs());
                    if attacks {
                        let empty = b.not(at(k, l));
                        free = b.and(free, empty);
                    }
                }
            }
            let absent = b.not(at(i, j));
            let placed = b.or(absent, free);
            all = b.and(all, placed);
        }
    }
    std::hint::black_box(all);
    b.nodes.len()
}

fn main() {
    let mut bdd = Bdd::new();
    // The first build faults in the tables' pages and is not timed.
    let nodes = queens(&mut bdd, 9);
    let start = Instant::now();
    assert_eq!(queens(&mut bdd, 9), nodes, "the build is deterministic");
    println!("{:.6} {nodes}", start.elapsed().as_secs_f64());
}
