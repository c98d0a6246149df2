//! Friends-of-friends (FOF) halo finder with hierarchical subhalo
//! splitting.
//!
//! Halos are equivalence classes of particles under "within a linking
//! length `b` times the mean inter-particle separation" (cosmology's
//! standard `b = 0.2` for halos). Sub-structure (the colored sub-halos of
//! Fig. 11) is extracted by re-running FOF on each halo's members at a
//! shorter linking length (`b ≈ 0.08`), which picks out the dense cores.
//!
//! The pair search uses a chaining mesh of cells ≥ the linking length and
//! a union-find structure with path compression, so the total cost is
//! near-linear in particle count.

/// One halo (or subhalo) in the catalog.
#[derive(Debug, Clone)]
pub struct Halo {
    /// Member particle indices into the input arrays.
    pub members: Vec<u32>,
    /// Periodic-aware center of mass, wrapped into the box.
    pub center: [f64; 3],
    /// Mean velocity of members.
    pub mean_velocity: [f64; 3],
}

impl Halo {
    /// Member count (mass in particle units).
    #[must_use] 
    pub fn count(&self) -> usize {
        self.members.len()
    }
}

/// FOF configuration bound to a particle population.
pub struct FofFinder {
    /// Periodic box side.
    pub box_len: f64,
    /// Linking length in absolute units (callers often use
    /// `b · box_len / n_per_side`).
    pub linking_length: f64,
    /// Smallest group reported.
    pub min_members: usize,
}

impl FofFinder {
    /// Standard configuration: linking parameter `b` (e.g. 0.2) for
    /// `np_side³` particles in a `box_len` box.
    #[must_use] 
    pub fn with_linking_param(box_len: f64, np_side: usize, b: f64, min_members: usize) -> Self {
        FofFinder {
            box_len,
            linking_length: b * box_len / np_side as f64,
            min_members,
        }
    }

    /// Run the finder; returns halos sorted by descending member count.
    #[must_use] 
    pub fn find(&self, xs: &[f32], ys: &[f32], zs: &[f32]) -> Vec<Halo> {
        self.find_with_velocities(xs, ys, zs, None)
    }

    /// Run the finder and attach mean velocities from the optional
    /// velocity arrays.
    #[must_use] 
    pub fn find_with_velocities(
        &self,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        vel: Option<(&[f32], &[f32], &[f32])>,
    ) -> Vec<Halo> {
        let np = xs.len();
        assert!(ys.len() == np && zs.len() == np);
        if np == 0 {
            return Vec::new();
        }
        let ll = self.linking_length;
        let ll2 = (ll * ll) as f32;
        let l = self.box_len;
        // Chaining mesh with cell ≥ linking length.
        let nc = ((l / ll).floor() as usize).clamp(1, 256);
        let cell_of = |x: f32, y: f32, z: f32| -> (usize, usize, usize) {
            let w = |v: f32| -> usize {
                let m = nc as f64;
                let c = ((crate::in_box(f64::from(v), l) / l) * m).floor();
                let c = if c < 0.0 { c + m } else { c };
                (c as usize).min(nc - 1)
            };
            (w(x), w(y), w(z))
        };
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); nc * nc * nc];
        for p in 0..np {
            let (cx, cy, cz) = cell_of(xs[p], ys[p], zs[p]);
            bins[(cx * nc + cy) * nc + cz].push(p as u32);
        }

        let mut uf = UnionFind::new(np);
        let half = (0.5 * l) as f32;
        let lf = l as f32;
        let min_image = |d: f32| -> f32 {
            if d > half {
                d - lf
            } else if d < -half {
                d + lf
            } else {
                d
            }
        };
        // Visit each cell and its neighbors; to avoid double work visit
        // only "forward" neighbor offsets (and all pairs within a cell).
        let fwd: Vec<[i64; 3]> = {
            let mut v = Vec::new();
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        if (dx, dy, dz) > (0, 0, 0) {
                            v.push([dx, dy, dz]);
                        }
                    }
                }
            }
            v
        };
        let wrap = |c: usize, d: i64| -> usize { ((c as i64 + d).rem_euclid(nc as i64)) as usize };
        let mut seen_cells: Vec<usize> = Vec::with_capacity(14);
        for cx in 0..nc {
            for cy in 0..nc {
                for cz in 0..nc {
                    let here = (cx * nc + cy) * nc + cz;
                    if bins[here].is_empty() {
                        continue;
                    }
                    // Intra-cell pairs.
                    let cell = &bins[here];
                    for i in 0..cell.len() {
                        for j in (i + 1)..cell.len() {
                            let (a, b) = (cell[i] as usize, cell[j] as usize);
                            let dx = min_image(xs[a] - xs[b]);
                            let dy = min_image(ys[a] - ys[b]);
                            let dz = min_image(zs[a] - zs[b]);
                            if dx * dx + dy * dy + dz * dz <= ll2 {
                                uf.union(a, b);
                            }
                        }
                    }
                    // Forward neighbor cells (deduplicated for tiny nc).
                    seen_cells.clear();
                    for off in &fwd {
                        let nb = (wrap(cx, off[0]) * nc + wrap(cy, off[1])) * nc + wrap(cz, off[2]);
                        if nb == here || seen_cells.contains(&nb) {
                            continue;
                        }
                        seen_cells.push(nb);
                        for &ai in cell {
                            for &bi in &bins[nb] {
                                let (a, b) = (ai as usize, bi as usize);
                                let dx = min_image(xs[a] - xs[b]);
                                let dy = min_image(ys[a] - ys[b]);
                                let dz = min_image(zs[a] - zs[b]);
                                if dx * dx + dy * dy + dz * dz <= ll2 {
                                    uf.union(a, b);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Collect groups.
        let mut groups: std::collections::HashMap<usize, Vec<u32>> =
            std::collections::HashMap::new();
        for p in 0..np {
            groups.entry(uf.find(p)).or_default().push(p as u32);
        }
        let mut halos: Vec<Halo> = groups
            .into_values()
            .filter(|g| g.len() >= self.min_members)
            .map(|members| self.summarize(members, xs, ys, zs, vel))
            .collect();
        halos.sort_by_key(|h| std::cmp::Reverse(h.count()));
        halos
    }

    /// Compute periodic-aware center of mass and mean velocity.
    fn summarize(
        &self,
        members: Vec<u32>,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        vel: Option<(&[f32], &[f32], &[f32])>,
    ) -> Halo {
        let l = self.box_len;
        let r = members[0] as usize;
        let refp = [f64::from(xs[r]), f64::from(ys[r]), f64::from(zs[r])];
        let mut acc = [0.0f64; 3];
        let mut vacc = [0.0f64; 3];
        for &m in &members {
            let m = m as usize;
            let p = [f64::from(xs[m]), f64::from(ys[m]), f64::from(zs[m])];
            for c in 0..3 {
                // Unwrap relative to the reference member.
                let mut d = p[c] - refp[c];
                if d > 0.5 * l {
                    d -= l;
                }
                if d < -0.5 * l {
                    d += l;
                }
                acc[c] += d;
            }
            if let Some((vx, vy, vz)) = vel {
                vacc[0] += f64::from(vx[m]);
                vacc[1] += f64::from(vy[m]);
                vacc[2] += f64::from(vz[m]);
            }
        }
        let n = members.len() as f64;
        let mut center = [0.0; 3];
        for c in 0..3 {
            let v = refp[c] + acc[c] / n;
            center[c] = v - (v / l).floor() * l;
        }
        Halo {
            members,
            center,
            mean_velocity: [vacc[0] / n, vacc[1] / n, vacc[2] / n],
        }
    }

    /// Split one halo into subhalos with a shorter linking length.
    ///
    /// `sub_fraction` scales the parent linking length (e.g. 0.4 turns
    /// `b = 0.2` into an effective `b = 0.08`).
    #[must_use] 
    pub fn subhalos(
        &self,
        halo: &Halo,
        xs: &[f32],
        ys: &[f32],
        zs: &[f32],
        sub_fraction: f64,
        min_members: usize,
    ) -> Vec<Halo> {
        let sub_x: Vec<f32> = halo.members.iter().map(|&m| xs[m as usize]).collect();
        let sub_y: Vec<f32> = halo.members.iter().map(|&m| ys[m as usize]).collect();
        let sub_z: Vec<f32> = halo.members.iter().map(|&m| zs[m as usize]).collect();
        let finder = FofFinder {
            box_len: self.box_len,
            linking_length: self.linking_length * sub_fraction,
            min_members,
        };
        let mut subs = finder.find(&sub_x, &sub_y, &sub_z);
        // Remap member indices back to the parent arrays.
        for s in subs.iter_mut() {
            for m in s.members.iter_mut() {
                *m = halo.members[*m as usize];
            }
        }
        subs
    }
}

/// Union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Place a Gaussian-ish blob of `n` particles around `c` with spread
    /// `r` using a deterministic generator.
    fn blob(
        xs: &mut Vec<f32>,
        ys: &mut Vec<f32>,
        zs: &mut Vec<f32>,
        c: [f32; 3],
        r: f32,
        n: usize,
        seed: u64,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 - 0.5
        };
        for _ in 0..n {
            xs.push(c[0] + r * next());
            ys.push(c[1] + r * next());
            zs.push(c[2] + r * next());
        }
    }

    #[test]
    fn two_separated_clusters_found() {
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        blob(&mut xs, &mut ys, &mut zs, [10.0, 10.0, 10.0], 0.5, 100, 1);
        blob(&mut xs, &mut ys, &mut zs, [40.0, 40.0, 40.0], 0.5, 60, 2);
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.5,
            min_members: 10,
        };
        let halos = f.find(&xs, &ys, &zs);
        assert_eq!(halos.len(), 2);
        assert_eq!(halos[0].count(), 100);
        assert_eq!(halos[1].count(), 60);
        for c in 0..3 {
            assert!((halos[0].center[c] - 10.0).abs() < 0.3);
            assert!((halos[1].center[c] - 40.0).abs() < 0.3);
        }
    }

    #[test]
    fn isolated_particles_filtered_by_min_members() {
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        blob(&mut xs, &mut ys, &mut zs, [5.0, 5.0, 5.0], 0.3, 50, 3);
        // Lone wolves far apart.
        for i in 0..20 {
            xs.push(20.0 + i as f32 * 2.0 % 40.0);
            ys.push(30.0 + i as f32 * 1.7 % 20.0);
            zs.push(50.0);
        }
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.4,
            min_members: 5,
        };
        let halos = f.find(&xs, &ys, &zs);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].count(), 50);
    }

    #[test]
    fn halo_across_periodic_boundary() {
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        // Straddles x = 0/64 seam.
        blob(&mut xs, &mut ys, &mut zs, [0.2, 32.0, 32.0], 0.4, 40, 5);
        blob(&mut xs, &mut ys, &mut zs, [63.8, 32.0, 32.0], 0.4, 40, 6);
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.6,
            min_members: 10,
        };
        let halos = f.find(&xs, &ys, &zs);
        assert_eq!(halos.len(), 1, "seam halo split: {:?}", halos.len());
        assert_eq!(halos[0].count(), 80);
        // Center should sit near the seam (x ≈ 0 or ≈ 64).
        let cx = halos[0].center[0];
        assert!(!(1.5..=62.5).contains(&cx), "center x = {cx}");
    }

    /// Engines hand out positions up to one step's drift outside the
    /// box: a chain across the x = 0 seam, its first links given as
    /// `x + L`, still links into one group.
    #[test]
    fn unwrapped_coordinates_link_across_the_seam() {
        let xs: Vec<f32> = (0..20)
            .map(|i| 0.1 + i as f32 * 0.45)
            .map(|x| if x < 0.6 { x + 64.0 } else { x })
            .collect();
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.5,
            min_members: 2,
        };
        let halos = f.find(&xs, &[10.0; 20], &[10.0; 20]);
        assert_eq!(halos.len(), 1, "chain split at the seam");
        assert_eq!(halos[0].count(), 20);
    }

    #[test]
    fn chain_links_into_one_group() {
        // A chain of particles each within the linking length of the next
        // must merge transitively.
        let xs: Vec<f32> = (0..50).map(|i| 5.0 + i as f32 * 0.45).collect();
        let ys = vec![10.0f32; 50];
        let zs = vec![10.0f32; 50];
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.5,
            min_members: 2,
        };
        let halos = f.find(&xs, &ys, &zs);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].count(), 50);
    }

    #[test]
    fn subhalos_find_embedded_cores() {
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        // Diffuse envelope plus two tight cores — a Fig. 11 situation.
        blob(&mut xs, &mut ys, &mut zs, [32.0, 32.0, 32.0], 3.0, 300, 7);
        blob(&mut xs, &mut ys, &mut zs, [31.0, 32.0, 32.0], 0.08, 80, 8);
        blob(&mut xs, &mut ys, &mut zs, [33.5, 32.5, 32.0], 0.08, 50, 9);
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.8,
            min_members: 20,
        };
        let halos = f.find(&xs, &ys, &zs);
        assert_eq!(halos.len(), 1, "envelope should link everything");
        let subs = f.subhalos(&halos[0], &xs, &ys, &zs, 0.15, 20);
        assert!(subs.len() >= 2, "found {} subhalos", subs.len());
        assert!(subs[0].count() >= 80);
        assert!(subs[1].count() >= 50);
    }

    #[test]
    fn mean_velocity_computed() {
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        blob(&mut xs, &mut ys, &mut zs, [10.0, 10.0, 10.0], 0.2, 30, 11);
        let vx = vec![2.0f32; 30];
        let vy = vec![-1.0f32; 30];
        let vz = vec![0.5f32; 30];
        let f = FofFinder {
            box_len: 64.0,
            linking_length: 0.4,
            min_members: 5,
        };
        let halos = f.find_with_velocities(&xs, &ys, &zs, Some((&vx, &vy, &vz)));
        assert_eq!(halos.len(), 1);
        assert!((halos[0].mean_velocity[0] - 2.0).abs() < 1e-6);
        assert!((halos[0].mean_velocity[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input_gives_empty_catalog() {
        let f = FofFinder {
            box_len: 10.0,
            linking_length: 0.2,
            min_members: 1,
        };
        assert!(f.find(&[], &[], &[]).is_empty());
    }

    #[test]
    fn union_find_invariants() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        let root = uf.find(0);
        for i in [1, 2, 3] {
            assert_eq!(uf.find(i), root);
        }
        assert_ne!(uf.find(4), root);
    }
}
