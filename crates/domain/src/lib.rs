//! Particle overloading — HACC's domain decomposition (Section II, Fig. 4).
//!
//! Space is split into regular (generally non-cubic) 3-D blocks of ranks.
//! Unlike the thin guard zones of a classic PM code, *full particle
//! replication* is maintained in a shell of width `w` (the overload width)
//! around every block: each rank stores its **active** particles (inside
//! its block — their mass is deposited in the Poisson solve and their
//! state is authoritative) followed by **passive** replicas owned by
//! neighboring ranks (moved by interpolated forces only, re-synchronized
//! at the next refresh).
//!
//! The payoff, as the paper puts it, is that the medium/long-range solve
//! needs *no communication of particle information* and the short-range
//! solver becomes entirely rank-local — new on-node solvers "can be
//! plugged in with guaranteed scalability".
//!
//! Periodic boundaries are folded into the same mechanism: a replica sent
//! across the periodic seam carries shifted coordinates, so along an axis
//! split into several blocks the rank-local force solver never needs to
//! know the box is periodic. A rank never sends itself copies: along an
//! axis with one block it holds the whole box side, and the force solver
//! treats that axis as periodic itself (`hacc-short`'s tree image
//! shifts), so no replica exists whose force would be thrown away.

use hacc_comm::Comm;

/// SoA particle storage for one rank.
///
/// The first [`Particles::n_active`] entries are active; the remainder are
/// passive replicas.
#[derive(Debug, Clone, Default)]
pub struct Particles {
    /// Positions (box units, active particles always within the domain).
    pub x: Vec<f32>,
    /// Position y.
    pub y: Vec<f32>,
    /// Position z.
    pub z: Vec<f32>,
    /// Velocity x.
    pub vx: Vec<f32>,
    /// Velocity y.
    pub vy: Vec<f32>,
    /// Velocity z.
    pub vz: Vec<f32>,
    /// Globally unique particle ids.
    pub id: Vec<u64>,
    /// Number of active particles (prefix of the arrays).
    pub n_active: usize,
}

impl Particles {
    /// Drop every particle, keeping the arrays' capacity.
    fn clear(&mut self) {
        for v in [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
        ] {
            v.clear();
        }
        self.id.clear();
        self.n_active = 0;
    }

    /// Drop the passive replicas, keeping the active prefix.
    pub fn drop_passives(&mut self) {
        let n = self.n_active;
        for v in [
            &mut self.x,
            &mut self.y,
            &mut self.z,
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
        ] {
            v.truncate(n);
        }
        self.id.truncate(n);
    }

    /// Total stored particles (active + passive).
    #[must_use] 
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if no particles are stored.
    #[must_use] 
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append one particle record.
    pub fn push(&mut self, p: Packed) {
        self.x.push(p.x);
        self.y.push(p.y);
        self.z.push(p.z);
        self.vx.push(p.vx);
        self.vy.push(p.vy);
        self.vz.push(p.vz);
        self.id.push(p.id);
    }

    /// Pack particle `i` for transmission.
    #[must_use] 
    pub fn pack(&self, i: usize) -> Packed {
        Packed {
            x: self.x[i],
            y: self.y[i],
            z: self.z[i],
            vx: self.vx[i],
            vy: self.vy[i],
            vz: self.vz[i],
            id: self.id[i],
        }
    }

    /// [`Self::pack`] with the position wrapped into `decomp`'s box.
    fn pack_wrapped(&self, i: usize, decomp: &Decomposition) -> Packed {
        Packed {
            x: decomp.wrap_f32(self.x[i]),
            y: decomp.wrap_f32(self.y[i]),
            z: decomp.wrap_f32(self.z[i]),
            ..self.pack(i)
        }
    }

    /// Overload memory overhead: passive / active (the paper quotes ~10%
    /// for large runs).
    #[must_use] 
    pub fn overload_fraction(&self) -> f64 {
        if self.n_active == 0 {
            0.0
        } else {
            (self.len() - self.n_active) as f64 / self.n_active as f64
        }
    }
}

/// Wire format for one particle.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Packed {
    /// Position x (already shifted into the destination frame).
    pub x: f32,
    /// Position y.
    pub y: f32,
    /// Position z.
    pub z: f32,
    /// Velocity x.
    pub vx: f32,
    /// Velocity y.
    pub vy: f32,
    /// Velocity z.
    pub vz: f32,
    /// Unique id.
    pub id: u64,
}

/// Geometry of the block decomposition.
#[derive(Debug, Clone, Copy)]
pub struct Decomposition {
    /// Blocks per axis; product must equal the communicator size.
    pub dims: [usize; 3],
    /// Periodic box side length.
    pub box_len: f64,
    /// Overload shell width (same units); must not exceed the smallest
    /// block half-width.
    pub overload: f64,
}

impl Decomposition {
    /// Create and validate a decomposition.
    #[must_use] 
    pub fn new(dims: [usize; 3], box_len: f64, overload: f64) -> Self {
        assert!(box_len > 0.0 && overload >= 0.0);
        for &d in &dims {
            assert!(d > 0, "dims must be positive");
            let block = box_len / d as f64;
            assert!(
                overload <= block,
                "overload width {overload} exceeds block width {block}"
            );
        }
        Decomposition {
            dims,
            box_len,
            overload,
        }
    }

    /// Total ranks covered.
    #[must_use] 
    pub fn ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Rank of block coordinates.
    #[must_use] 
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Block coordinates of a rank.
    #[must_use] 
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        [
            rank / (self.dims[1] * self.dims[2]),
            (rank / self.dims[2]) % self.dims[1],
            rank % self.dims[2],
        ]
    }

    /// Domain bounds of a rank: `[lo, hi)` per axis.
    #[must_use] 
    pub fn domain_of(&self, rank: usize) -> ([f64; 3], [f64; 3]) {
        let c = self.coords_of(rank);
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for a in 0..3 {
            let w = self.box_len / self.dims[a] as f64;
            lo[a] = c[a] as f64 * w;
            hi[a] = (c[a] + 1) as f64 * w;
        }
        (lo, hi)
    }

    /// Wrap a coordinate into `[0, box_len)`.
    #[must_use] 
    pub fn wrap(&self, v: f64) -> f64 {
        let l = self.box_len;
        let w = v - (v / l).floor() * l;
        if w >= l {
            0.0
        } else {
            w
        }
    }

    /// [`Self::wrap`] for a stored `f32` coordinate. The wrap runs in
    /// f64, and a result a hair below `box_len` (from `v = -1e-6`) rounds
    /// to exactly `box_len` when narrowed — which [`Self::owner_of`] would
    /// hand to block 0, a whole box away from the stored value. Such a
    /// result is the periodic image of 0, so it narrows to `0.0`.
    #[must_use]
    pub fn wrap_f32(&self, v: f32) -> f32 {
        let w = self.wrap(f64::from(v)) as f32;
        if f64::from(w) >= self.box_len {
            0.0
        } else {
            w
        }
    }

    /// Owner rank of a (wrapped) position.
    #[must_use] 
    pub fn owner_of(&self, pos: [f64; 3]) -> usize {
        let mut c = [0usize; 3];
        for a in 0..3 {
            let w = self.box_len / self.dims[a] as f64;
            c[a] = ((self.wrap(pos[a]) / w) as usize).min(self.dims[a] - 1);
        }
        self.rank_of(c)
    }

    /// All (rank, coordinate shift) pairs that must hold a *passive* copy
    /// of a particle at (wrapped) `pos`, excluding the unshifted owner
    /// entry. Shifts are expressed in the destination frame (`stored
    /// position = pos + shift`).
    ///
    /// Convenience wrapper over [`Self::overload_targets_into`] that
    /// allocates a fresh `Vec`; hot paths ([`refresh`]) reuse an
    /// [`OverloadTargets`] buffer instead.
    #[must_use]
    pub fn overload_targets(&self, pos: [f64; 3]) -> Vec<(usize, [f64; 3])> {
        let mut buf = OverloadTargets::default();
        self.overload_targets_into(pos, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Allocation-free form of [`Self::overload_targets`]: clears `out`
    /// and fills it with the (rank, shift) images of `pos`. The buffer is
    /// inline (capacity 26 = 3³−1, the geometric maximum), so a refresh
    /// loop reuses one buffer for every particle.
    ///
    /// An axis with one block adds no face candidates, so the owner is
    /// never a target: no rank receives an image of its own particle.
    pub fn overload_targets_into(&self, pos: [f64; 3], out: &mut OverloadTargets) {
        out.clear();
        let w = self.overload;
        // Per-axis candidates: (block index, shift). At most the home
        // block plus one face neighbor per side.
        let mut cand = [[(0usize, 0.0f64); 3]; 3];
        let mut cand_n = [0usize; 3];
        for a in 0..3 {
            let d = self.dims[a];
            let bw = self.box_len / d as f64;
            let x = self.wrap(pos[a]);
            let b = ((x / bw) as usize).min(d - 1);
            cand[a][0] = (b, 0.0);
            cand_n[a] = 1;
            if d == 1 {
                continue;
            }
            if x - b as f64 * bw < w {
                // Within w of the lower face: the block below keeps a copy.
                let (nb, shift) = if b == 0 {
                    (d - 1, self.box_len)
                } else {
                    (b - 1, 0.0)
                };
                cand[a][cand_n[a]] = (nb, shift);
                cand_n[a] += 1;
            }
            if (b + 1) as f64 * bw - x <= w {
                let (nb, shift) = if b + 1 == d {
                    (0, -self.box_len)
                } else {
                    (b + 1, 0.0)
                };
                cand[a][cand_n[a]] = (nb, shift);
                cand_n[a] += 1;
            }
        }
        let owner = self.owner_of(pos);
        for &(bx, sx) in &cand[0][..cand_n[0]] {
            for &(by, sy) in &cand[1][..cand_n[1]] {
                for &(bz, sz) in &cand[2][..cand_n[2]] {
                    // Every face candidate is another block, so only
                    // the all-home combination reaches the owner. Two
                    // combinations differ in a block or a shift, so no
                    // (rank, shift) repeats.
                    let r = self.rank_of([bx, by, bz]);
                    if r != owner {
                        out.push(r, [sx, sy, sz]);
                    }
                }
            }
        }
    }
}

/// Inline, fixed-capacity buffer of overload (rank, shift) images —
/// the `SmallVec`-style target list of
/// [`Decomposition::overload_targets_into`]. Capacity 26 (= 3³−1) is the
/// geometric maximum: one image per neighboring block of the 3×3×3
/// stencil around the owner.
#[derive(Debug, Clone, Copy)]
pub struct OverloadTargets {
    buf: [(usize, [f64; 3]); 26],
    len: usize,
}

impl Default for OverloadTargets {
    fn default() -> Self {
        OverloadTargets {
            buf: [(0, [0.0; 3]); 26],
            len: 0,
        }
    }
}

impl OverloadTargets {
    /// The filled prefix.
    #[must_use]
    pub fn as_slice(&self) -> &[(usize, [f64; 3])] {
        &self.buf[..self.len]
    }

    /// Number of targets currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no targets are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all targets (capacity is inline; this is free).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, rank: usize, shift: [f64; 3]) {
        self.buf[self.len] = (rank, shift);
        self.len += 1;
    }
}

impl<'a> IntoIterator for &'a OverloadTargets {
    type Item = &'a (usize, [f64; 3]);
    type IntoIter = std::slice::Iter<'a, (usize, [f64; 3])>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Tagged wire record: `active` marks ownership transfer vs passive copy.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Tagged {
    p: Packed,
    active: u32,
    _pad: u32,
}

hacc_comm::impl_wire_msg!(Packed {
    x: f32,
    y: f32,
    z: f32,
    vx: f32,
    vy: f32,
    vz: f32,
    id: u64,
});
hacc_comm::impl_wire_msg!(Tagged {
    p: Packed,
    active: u32,
    _pad: u32,
});

/// Overload refresh (collective).
///
/// Drops all passive replicas, migrates active particles that crossed
/// domain boundaries to their new owners, and rebuilds every rank's
/// overload shell. On return, each rank's [`Particles`] holds its active
/// particles (wrapped into the box) followed by fresh passive replicas
/// (in the local shifted frame). A one-block decomposition has no
/// migration and no replica: its refresh wraps the actives in place,
/// in order, with no message and no allocation.
pub fn refresh(comm: &Comm, decomp: &Decomposition, particles: &mut Particles) {
    try_refresh(comm, decomp, particles).unwrap_or_else(|e| panic!("{e}"));
}

/// [`refresh`], but a dead peer mid-collective surfaces as
/// `Err(CommError::RankFailed)` (or a timeout / corruption diagnosis)
/// instead of a panic, so a resilient driver can escalate its recovery
/// tier. The particle store is untouched on error.
pub fn try_refresh(
    comm: &Comm,
    decomp: &Decomposition,
    particles: &mut Particles,
) -> Result<(), hacc_comm::CommError> {
    assert_eq!(comm.size(), decomp.ranks(), "decomposition/communicator mismatch");
    if decomp.ranks() == 1 {
        particles.drop_passives();
        for c in [&mut particles.x, &mut particles.y, &mut particles.z] {
            for v in c.iter_mut() {
                *v = decomp.wrap_f32(*v);
            }
        }
        return Ok(());
    }
    let mut sends: Vec<Vec<Tagged>> = (0..comm.size()).map(|_| Vec::new()).collect();
    let mut targets = OverloadTargets::default();
    for i in 0..particles.n_active {
        let p = particles.pack_wrapped(i, decomp);
        let pos = [f64::from(p.x), f64::from(p.y), f64::from(p.z)];
        let owner = decomp.owner_of(pos);
        sends[owner].push(Tagged {
            p,
            active: 1,
            _pad: 0,
        });
        decomp.overload_targets_into(pos, &mut targets);
        for &(rank, shift) in &targets {
            let mut q = p;
            q.x = (pos[0] + shift[0]) as f32;
            q.y = (pos[1] + shift[1]) as f32;
            q.z = (pos[2] + shift[2]) as f32;
            sends[rank].push(Tagged {
                p: q,
                active: 0,
                _pad: 0,
            });
        }
    }
    let recvs = comm.try_alltoallv(sends)?;
    // Rebuilt in the old store's capacity: a refresh allocates its
    // messages, not a second particle set.
    particles.clear();
    // Active first.
    for chunk in &recvs {
        for t in chunk.iter().filter(|t| t.active == 1) {
            particles.push(t.p);
        }
    }
    particles.n_active = particles.len();
    for chunk in &recvs {
        for t in chunk.iter().filter(|t| t.active == 0) {
            particles.push(t.p);
        }
    }
    Ok(())
}

/// Route every copy this rank holds to its owner under `decomp`, and
/// adopt one copy per particle id (collective over a communicator at
/// least `decomp.ranks()` large) — the particle half of every
/// membership change.
///
/// Active records travel as authoritative ownership transfers (exactly
/// the migration an ordinary [`refresh`] performs), passive overload
/// replicas as redundant candidates. A receiver adopts the authoritative
/// record when one survives (a particle that drifted across a boundary
/// since the last refresh is handed off once, never duplicated by its
/// replicas), otherwise the replica donated by the lowest donor rank.
/// Adopted records are sorted by id, so the store is identical however
/// messages interleave; passive shells are left empty — run [`refresh`]
/// on the owning communicator afterwards to rebuild them.
///
/// - **Rank failure** (same decomposition, blank replacements joining
///   empty): survivors' replicas resurrect what died with the failed
///   ranks, accurate to the force noise replicas accumulate between
///   refreshes. Replicas reach only overload depth, so a particle whose
///   every copy died is absent; callers certify the global count.
/// - **Resize** (a new decomposition, over the union of the old and new
///   worlds): ranks at `decomp.ranks()..comm.size()` send everything and
///   receive nothing. Callers drop their passive shells first, so only
///   the (uniquely owned) actives move.
///
/// A rank death mid-exchange surfaces as the collective's error; the
/// store is untouched on error.
pub fn try_rehome(
    comm: &Comm,
    decomp: &Decomposition,
    particles: &mut Particles,
) -> Result<(), hacc_comm::CommError> {
    assert!(
        comm.size() >= decomp.ranks(),
        "rehome over {} ranks cannot cover a {}-rank decomposition",
        comm.size(),
        decomp.ranks()
    );
    let mut sends: Vec<Vec<Tagged>> = (0..comm.size()).map(|_| Vec::new()).collect();
    for i in 0..particles.len() {
        let p = particles.pack_wrapped(i, decomp);
        let owner = decomp.owner_of([f64::from(p.x), f64::from(p.y), f64::from(p.z)]);
        sends[owner].push(Tagged {
            p,
            active: u32::from(i < particles.n_active),
            _pad: 0,
        });
    }
    let recvs = comm.try_alltoallv(sends)?;
    // Two passes over the rank-ordered chunks — authoritative records,
    // then replicas — so the first copy of an id to pass the seen-set is
    // the one that wins.
    let mut seen = std::collections::HashSet::new();
    let mut adopted: Vec<Packed> = Vec::new();
    for authoritative in [1u32, 0] {
        for chunk in &recvs {
            for t in chunk.iter().filter(|t| t.active == authoritative) {
                if seen.insert(t.p.id) {
                    adopted.push(t.p);
                }
            }
        }
    }
    adopted.sort_by_key(|p| p.id);
    particles.clear();
    for p in adopted {
        particles.push(p);
    }
    particles.n_active = particles.len();
    Ok(())
}

/// Slab-grid ghost machinery: plane-halo exchange and spill folding for
/// fields decomposed along x, one slab per rank on a periodic ring.
///
/// These are the grid-side counterparts of the particle overload shell:
/// the distributed driver uses [`gridhalo::fold_spill_into`] to push
/// deposit spill from the halo back onto the owning neighbors and
/// [`gridhalo::exchange_halos`] to pad its three force slabs with
/// the planes interpolation reads (and, on the two-level mesh, the fine
/// density slab with the ghost planes its local complement FFT needs),
/// so every slab-plane message in the code goes through one audited
/// path. Both work on the caller's held fields; the messages are the
/// only buffers they allocate.
pub mod gridhalo {
    use hacc_comm::Comm;

    /// Send `up` to the next rank and `down` to the previous one and
    /// return `(from_prev, from_next)` — what they sent up and down.
    fn ring_exchange(
        comm: &Comm,
        tags: (u64, u64),
        up: Vec<f64>,
        down: Vec<f64>,
    ) -> (Vec<f64>, Vec<f64>) {
        let p = comm.size();
        let next = (comm.rank() + 1) % p;
        let prev = (comm.rank() + p - 1) % p;
        comm.send(next, tags.0, up);
        comm.send(prev, tags.1, down);
        (comm.recv(prev, tags.0), comm.recv(next, tags.1))
    }

    /// The halo planes of one [`exchange_halos`], `k` fields to a
    /// message, read in place from the two received messages.
    #[derive(Debug)]
    pub struct Halos {
        from_prev: Vec<f64>,
        from_next: Vec<f64>,
        /// Values per field in each message.
        len: usize,
    }

    impl Halos {
        /// Field `k`'s planes `[x0 - h, x0)`, from the previous rank.
        #[must_use]
        pub fn below(&self, k: usize) -> &[f64] {
            &self.from_prev[k * self.len..(k + 1) * self.len]
        }

        /// Field `k`'s planes `[x0 + lx, x0 + lx + h)`, from the next
        /// rank.
        #[must_use]
        pub fn above(&self, k: usize) -> &[f64] {
            &self.from_next[k * self.len..(k + 1) * self.len]
        }

        /// Extend field `k` in place to its haloed form, planes
        /// `[x0 - h, x0 + lx + h)` — for a consumer that needs one
        /// contiguous slab.
        pub fn extend(&self, k: usize, field: &mut Vec<f64>) {
            let (hp, owned) = (self.len, field.len());
            field.resize(owned + 2 * hp, 0.0);
            field.copy_within(..owned, hp);
            field[..hp].copy_from_slice(self.below(k));
            field[hp + owned..].copy_from_slice(self.above(k));
        }
    }

    /// Exchange `h` halo planes of `k` slab fields along the x ring, all
    /// `k` in one message per direction.
    ///
    /// Each field holds `lx` whole planes of `plane` values. The top `h`
    /// planes of every field go to the next rank, the bottom `h` to the
    /// previous; the returned [`Halos`] hold field `k`'s planes
    /// `[x0 - h, x0)` and `[x0 + lx, x0 + lx + h)`. `tags` is an
    /// `(up, down)` pair that must be unique per call site so concurrent
    /// exchanges never cross. Collective over the ring; requires
    /// `h ≤ lx` (one-hop exchange).
    #[must_use]
    pub fn exchange_halos(
        comm: &Comm,
        fields: &[Vec<f64>],
        plane: usize,
        h: usize,
        tags: (u64, u64),
    ) -> Halos {
        let first = fields.first().map_or(0, Vec::len);
        assert!(plane > 0 && first.is_multiple_of(plane), "not whole planes");
        let lx = first / plane;
        assert!(
            fields.iter().all(|f| f.len() == lx * plane),
            "fields differ in size"
        );
        assert!(h <= lx, "halo ({h} planes) wider than slab ({lx})");
        let len = h * plane;
        // Planes [from, from + h) of every field, back to back.
        let message = |from: usize| -> Vec<f64> {
            let mut msg = Vec::with_capacity(fields.len() * len);
            for f in fields {
                msg.extend_from_slice(&f[from * plane..][..len]);
            }
            msg
        };
        let (from_prev, from_next) = ring_exchange(comm, tags, message(lx - h), message(0));
        Halos {
            from_prev,
            from_next,
            len,
        }
    }

    /// Single-field [`exchange_halos`] into a fresh extended field
    /// covering `[x0 - h, x0 + lx + h)`.
    #[must_use]
    pub fn exchange_planes(
        comm: &Comm,
        local: &[f64],
        plane: usize,
        h: usize,
        tags: (u64, u64),
    ) -> Vec<f64> {
        let mut ext = local.to_vec();
        let halos = exchange_halos(comm, std::slice::from_ref(&ext), plane, h, tags);
        halos.extend(0, &mut ext);
        ext
    }

    /// Fold the spill planes of an extended deposit onto the ring
    /// neighbors, in place.
    ///
    /// `ext` holds `lx + 2·hd` planes covering `[x0 - hd, x0 + lx + hd)`
    /// — a slab deposit whose clouds may have spilled up to `hd` planes
    /// past either face. The spill is sent to the owning neighbor, the
    /// neighbors' incoming spill is accumulated into this rank's planes,
    /// and `ext` is cut down to the owned `lx`-plane field. Collective;
    /// requires `hd ≤ lx` so the fold is one hop.
    pub fn fold_spill_into(
        comm: &Comm,
        ext: &mut Vec<f64>,
        plane: usize,
        hd: usize,
        tags: (u64, u64),
    ) {
        assert!(
            plane > 0 && ext.len().is_multiple_of(plane),
            "not whole planes"
        );
        let nx = ext.len() / plane;
        assert!(nx > 2 * hd, "extended field smaller than its halos");
        let lx = nx - 2 * hd;
        assert!(hd <= lx, "spill ({hd} planes) wider than slab ({lx})");
        // Our planes [x0+lx, x0+lx+hd) are next's [0, hd); our
        // [x0-hd, x0) are prev's [lx-hd, lx).
        let up = ext[(lx + hd) * plane..].to_vec();
        let down = ext[..hd * plane].to_vec();
        let (from_prev, from_next) = ring_exchange(comm, tags, up, down);
        for (d, s) in ext[hd * plane..2 * hd * plane].iter_mut().zip(&from_prev) {
            *d += s;
        }
        for (d, s) in ext[lx * plane..(lx + hd) * plane]
            .iter_mut()
            .zip(&from_next)
        {
            *d += s;
        }
        ext.copy_within(hd * plane..(lx + hd) * plane, 0);
        ext.truncate(lx * plane);
    }

    /// [`fold_spill_into`] into a fresh owned field.
    #[must_use]
    pub fn fold_spill(
        comm: &Comm,
        ext: &[f64],
        plane: usize,
        hd: usize,
        tags: (u64, u64),
    ) -> Vec<f64> {
        let mut local = ext.to_vec();
        fold_spill_into(comm, &mut local, plane, hd, tags);
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_comm::Machine;

    fn decomp222() -> Decomposition {
        Decomposition::new([2, 2, 2], 16.0, 2.0)
    }

    #[test]
    fn owner_lookup_matches_domains() {
        let d = decomp222();
        for rank in 0..8 {
            let (lo, hi) = d.domain_of(rank);
            let mid = [
                0.5 * (lo[0] + hi[0]),
                0.5 * (lo[1] + hi[1]),
                0.5 * (lo[2] + hi[2]),
            ];
            assert_eq!(d.owner_of(mid), rank);
        }
    }

    #[test]
    fn wrap_behaviour() {
        let d = decomp222();
        assert_eq!(d.wrap(16.0), 0.0);
        assert_eq!(d.wrap(-1.0), 15.0);
        assert_eq!(d.wrap(17.5), 1.5);
        assert_eq!(d.wrap(3.0), 3.0);
    }

    #[test]
    fn interior_particle_has_no_overload_targets() {
        let d = decomp222();
        assert!(d.overload_targets([4.0, 4.0, 4.0]).is_empty());
    }

    #[test]
    fn face_particle_replicated_once() {
        let d = decomp222();
        // Just below the x = 8 boundary, interior in y, z: one target —
        // the +x neighbor.
        let t = d.overload_targets([7.5, 4.0, 4.0]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].0, d.rank_of([1, 0, 0]));
        assert_eq!(t[0].1, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn corner_particle_replicated_to_seven_ranks() {
        let d = decomp222();
        // Near the (8,8,8) corner: 7 other blocks share the corner.
        let t = d.overload_targets([7.5, 7.5, 7.5]);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn periodic_shift_applied_across_seam() {
        let d = decomp222();
        // Near x = 0: replicated to the x-top block with +L shift.
        let t = d.overload_targets([0.5, 4.0, 4.0]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].0, d.rank_of([1, 0, 0]));
        assert_eq!(t[0].1, [16.0, 0.0, 0.0]);
    }

    #[test]
    fn single_block_axis_sends_no_self_images() {
        // dims = [1,1,1]: the one rank spans every axis whole, so even a
        // corner particle has no overload target.
        let d = Decomposition::new([1, 1, 1], 10.0, 1.0);
        assert!(d.overload_targets([0.5, 5.0, 5.0]).is_empty());
        assert!(d.overload_targets([0.5, 0.5, 9.5]).is_empty());
        // Slabs: a corner particle is replicated along x only — to the
        // x-neighbor below across the seam, never back to itself along
        // y or z.
        let slabs = Decomposition::new([2, 1, 1], 10.0, 1.0);
        let t = slabs.overload_targets([0.5, 0.5, 9.5]);
        assert_eq!(t, vec![(1, [10.0, 0.0, 0.0])]);
    }

    #[test]
    #[should_panic(expected = "exceeds block width")]
    fn oversized_overload_rejected() {
        let _ = Decomposition::new([4, 1, 1], 16.0, 5.0);
    }

    /// A one-block refresh wraps the actives in place and in order —
    /// as the general path would route them all to the one rank — drops
    /// stale replicas, and sends nothing.
    #[test]
    fn one_block_refresh_wraps_in_place() {
        let d = Decomposition::new([1, 1, 1], 16.0, 2.0);
        let xs = [-1e-6f32, 3.5, 16.0, 31.25, -4.0];
        let (res, stats) = Machine::new(1).run(|comm| {
            let mut parts = Particles::default();
            for (i, &x) in xs.iter().enumerate() {
                parts.push(Packed {
                    x,
                    y: 17.0 - x,
                    z: x * 2.0,
                    vx: i as f32,
                    vy: 0.0,
                    vz: 0.0,
                    id: 10 + i as u64,
                });
            }
            parts.n_active = 4;
            refresh(&comm, &d, &mut parts);
            parts
        });
        let parts = &res[0];
        assert_eq!((parts.n_active, parts.len()), (4, 4), "the stale replica is dropped");
        assert_eq!(parts.id, [10, 11, 12, 13]);
        for (i, &x) in xs[..4].iter().enumerate() {
            let want = [x, 17.0 - x, x * 2.0].map(|v| d.wrap_f32(v).to_bits());
            let got = [parts.x[i], parts.y[i], parts.z[i]].map(f32::to_bits);
            assert_eq!(got, want, "particle {i}");
        }
        assert_eq!(stats.msgs_sent.iter().sum::<u64>(), 0, "a one-block refresh sends nothing");
    }

    #[test]
    fn refresh_migrates_and_replicates() {
        let (res, _) = Machine::new(8).run(|comm| {
            let d = decomp222();
            let mut parts = Particles::default();
            if comm.rank() == 0 {
                // One particle deep inside rank 0, one that wandered into
                // rank 7's corner region, one near a face.
                for (i, pos) in [[4.0f32, 4.0, 4.0], [12.0, 12.0, 12.0], [7.9, 4.0, 4.0]]
                    .iter()
                    .enumerate()
                {
                    parts.push(Packed {
                        x: pos[0],
                        y: pos[1],
                        z: pos[2],
                        vx: 0.0,
                        vy: 0.0,
                        vz: 0.0,
                        id: i as u64,
                    });
                }
                parts.n_active = 3;
            }
            refresh(&comm, &d, &mut parts);
            (comm.rank(), parts.n_active, parts.len(), parts.id.clone())
        });
        let total_active: usize = res.iter().map(|&(_, a, _, _)| a).sum();
        assert_eq!(total_active, 3, "every particle owned exactly once");
        // Rank 0 keeps ids 0 and 2; rank 7 owns id 1.
        let rank0 = &res[0];
        assert_eq!(rank0.1, 2);
        let rank7 = &res[7];
        assert_eq!(rank7.1, 1);
        assert!(rank7.3.contains(&1));
        // The face particle (id 2 at x=7.9) is replicated passively to
        // rank (1,0,0) = rank 4.
        let rank4 = &res[4];
        assert!(rank4.3.contains(&2), "rank 4 ids: {:?}", rank4.3);
        assert_eq!(rank4.1, 0, "rank 4 holds it passively");
    }

    #[test]
    fn refresh_idempotent_for_settled_particles() {
        let (res, _) = Machine::new(8).run(|comm| {
            let d = decomp222();
            let (lo, hi) = d.domain_of(comm.rank());
            let mut parts = Particles::default();
            // A deterministic interior cloud per rank.
            for i in 0..20u64 {
                let f = 0.2 + 0.6 * (i as f64 / 20.0);
                parts.push(Packed {
                    x: (lo[0] + f * (hi[0] - lo[0])) as f32,
                    y: (lo[1] + 0.5 * (hi[1] - lo[1])) as f32,
                    z: (lo[2] + 0.5 * (hi[2] - lo[2])) as f32,
                    vx: 0.0,
                    vy: 0.0,
                    vz: 0.0,
                    id: comm.rank() as u64 * 100 + i,
                });
            }
            parts.n_active = 20;
            refresh(&comm, &d, &mut parts);
            let first = (parts.n_active, parts.len());
            refresh(&comm, &d, &mut parts);
            (first, (parts.n_active, parts.len()))
        });
        for (a, b) in res {
            assert_eq!(a, b, "second refresh changed the state");
            assert_eq!(a.0, 20);
        }
    }

    #[test]
    fn passive_positions_in_local_frame() {
        // A particle near x=0 owned by rank 0 appears at x ≈ 16 on the
        // x-neighbor (stored coordinate beyond the box edge).
        let (res, _) = Machine::new(2).run(|comm| {
            let d = Decomposition::new([2, 1, 1], 16.0, 2.0);
            let mut parts = Particles::default();
            if comm.rank() == 0 {
                parts.push(Packed {
                    x: 0.5,
                    y: 8.0,
                    z: 8.0,
                    vx: 0.0,
                    vy: 0.0,
                    vz: 0.0,
                    id: 42,
                });
                parts.n_active = 1;
            }
            refresh(&comm, &d, &mut parts);
            parts.x.clone()
        });
        assert!(res[1].contains(&16.5), "rank1 x: {:?}", res[1]);
    }

    #[test]
    fn refresh_never_stores_box_len() {
        // -1e-6 wraps to 127.999999, which is nearer to 128.0 than to the
        // f32 below it: the owner (rank 0, via the periodic image) must
        // receive the particle at 0.0, inside its own slab.
        let (res, _) = Machine::new(2).run(|comm| {
            let d = Decomposition::new([2, 1, 1], 128.0, 6.0);
            let mut parts = Particles::default();
            if comm.rank() == 1 {
                parts.push(Packed {
                    x: -1e-6,
                    y: 64.0,
                    z: 64.0,
                    vx: 0.0,
                    vy: 0.0,
                    vz: 0.0,
                    id: 7,
                });
                parts.n_active = 1;
            }
            refresh(&comm, &d, &mut parts);
            parts.x[..parts.n_active].to_vec()
        });
        assert_eq!(res[0], vec![0.0]);
        assert!(res[1].is_empty());
    }

    #[test]
    fn targets_into_matches_vec_form_everywhere() {
        // The buffered form is the implementation; the Vec form is a
        // wrapper — sweep a grid of positions (faces, corners, seams)
        // and check they agree and stay within the inline capacity.
        let d = decomp222();
        let mut buf = OverloadTargets::default();
        for ix in 0..16 {
            for iy in 0..16 {
                for iz in 0..16 {
                    let pos = [
                        f64::from(ix) + 0.25,
                        f64::from(iy) + 0.75,
                        f64::from(iz) + 0.5,
                    ];
                    d.overload_targets_into(pos, &mut buf);
                    assert!(buf.len() <= 26);
                    assert_eq!(buf.as_slice(), d.overload_targets(pos).as_slice());
                }
            }
        }
        // dims=1 axes add no candidates: a [2,1,1] corner particle keeps
        // its one x image, a [1,1,1] one none — and the buffer is
        // cleared, not appended to.
        let slabs = Decomposition::new([2, 1, 1], 10.0, 1.0);
        slabs.overload_targets_into([0.5, 0.5, 0.5], &mut buf);
        assert_eq!(buf.as_slice(), &[(1, [10.0, 0.0, 0.0])]);
        assert_eq!(buf.as_slice(), slabs.overload_targets([0.5, 0.5, 0.5]).as_slice());
        let d1 = Decomposition::new([1, 1, 1], 10.0, 1.0);
        d1.overload_targets_into([0.5, 0.5, 0.5], &mut buf);
        assert!(buf.is_empty());
        assert!(d1.overload_targets([0.5, 0.5, 0.5]).is_empty());
    }

    #[test]
    fn rehome_rebuilds_partition_without_duplicates() {
        // Kill rank 0 after its particles have drifted since the last
        // refresh, and check the three recovery motions at once:
        // resurrection (ids 0..2 rebuilt on the replacement from rank
        // 4's replicas), self-promotion (id 3 drifted out of the dead
        // domain, so rank 4 promotes its own replica), and authoritative
        // handoff (survivor rank 4's id 10 drifted *into* the dead
        // domain — its live copy must win over the surviving replicas,
        // and must not be duplicated).
        let (res, _) = Machine::new(8).run(|comm| {
            let d = decomp222();
            let mut parts = Particles::default();
            if comm.rank() == 0 {
                for i in 0..4u64 {
                    parts.push(Packed {
                        x: 7.5,
                        y: 2.0 + i as f32,
                        z: 4.0,
                        vx: 0.0,
                        vy: 0.0,
                        vz: 0.0,
                        id: i,
                    });
                }
                parts.n_active = 4;
            }
            if comm.rank() == 4 {
                // Near the x and y faces: replicated to ranks 0, 2, 6.
                parts.push(Packed {
                    x: 8.3,
                    y: 7.5,
                    z: 4.0,
                    vx: 0.0,
                    vy: 0.0,
                    vz: 0.0,
                    id: 10,
                });
                parts.n_active = 1;
            }
            refresh(&comm, &d, &mut parts);
            // Simulated drift since the refresh: id 3 leaves the doomed
            // domain (x 7.5 → 8.2); id 10 crosses into it (8.3 → 7.9),
            // its passive replicas tracking with force-noise scatter.
            for i in 0..parts.len() {
                if parts.id[i] == 3 {
                    parts.x[i] = 8.2;
                }
                if parts.id[i] == 10 {
                    parts.x[i] = if i < parts.n_active { 7.9 } else { 7.88 };
                }
            }
            // Rank 0 dies and re-enters as a blank replacement.
            if comm.rank() == 0 {
                parts = Particles::default();
            }
            try_rehome(&comm, &d, &mut parts).unwrap();
            let x_of_10 = parts
                .id
                .iter()
                .position(|&j| j == 10)
                .map(|i| parts.x[i]);
            (
                parts.len() - parts.n_active,
                parts.id[..parts.n_active].to_vec(),
                x_of_10,
            )
        });
        let mut all_active: Vec<u64> = res.iter().flat_map(|(_, ids, _)| ids.clone()).collect();
        all_active.sort_unstable();
        assert_eq!(all_active, vec![0, 1, 2, 3, 10], "each survivor exactly once: {res:?}");
        let mut ids0 = res[0].1.clone();
        ids0.sort_unstable();
        assert_eq!(ids0, vec![0, 1, 2, 10], "replacement partition");
        let x10 = res[0].2.expect("id 10 lives on the replacement");
        assert!((x10 - 7.9).abs() < 1e-6, "authoritative copy beats replicas, x={x10}");
        assert_eq!(res[4].1, vec![3], "drift-out particle self-promoted by rank 4");
        for (rank, (passives, _, _)) in res.iter().enumerate() {
            assert_eq!(*passives, 0, "rank {rank} shell left for the follow-up refresh");
        }
    }

    /// A particle at `x` (mid-box in y, z of a 16- or 24-box) marked by
    /// its velocity: +1 for an active record, -1 for a replica.
    fn at(x: f32, id: u64, vx: f32) -> Packed {
        Packed {
            x,
            y: 8.0,
            z: 8.0,
            vx,
            vy: 0.0,
            vz: 0.0,
            id,
        }
    }

    /// Actives then replicas, as a post-refresh store holds them.
    fn store(actives: &[(u64, f32)], replicas: &[(u64, f32)]) -> Particles {
        let mut parts = Particles::default();
        for &(id, x) in actives {
            parts.push(at(x, id, 1.0));
        }
        parts.n_active = actives.len();
        for &(id, x) in replicas {
            parts.push(at(x, id, -1.0));
        }
        parts
    }

    #[test]
    fn rehome_grow_spreads_partition_over_union_comm() {
        // 2 slabs → 4 slabs over the union (= new, bigger) communicator:
        // the two old ranks own everything going in; afterwards each of
        // the four ranks owns exactly its quarter, actives only.
        let (res, _) = Machine::new(4).run(|comm| {
            let old = Decomposition::new([2, 1, 1], 16.0, 2.0);
            let new = Decomposition::new([4, 1, 1], 16.0, 2.0);
            let mut parts = Particles::default();
            if comm.rank() < 2 {
                let (lo, _) = old.domain_of(comm.rank());
                let actives: Vec<(u64, f32)> = (0..8u64)
                    .map(|i| (comm.rank() as u64 * 100 + i, (lo[0] + i as f64) as f32))
                    .collect();
                // The resize caller drops its stale shell first.
                parts = store(&actives, &[(999, 15.0)]);
                parts.drop_passives();
            }
            try_rehome(&comm, &new, &mut parts).unwrap();
            (parts.n_active, parts.len(), parts.id.clone())
        });
        let total: usize = res.iter().map(|(a, _, _)| a).sum();
        assert_eq!(total, 16, "every active owned exactly once");
        for (rank, (a, len, ids)) in res.iter().enumerate() {
            assert_eq!(a, len, "rank {rank}: shells empty until refresh");
            assert_eq!(*a, 4, "rank {rank} owns its quarter: {ids:?}");
            assert!(!ids.contains(&999), "stale passive must not survive");
            assert!(ids.is_sorted(), "deterministic id order: {ids:?}");
        }
    }

    #[test]
    fn rehome_shrink_empties_retiring_ranks() {
        // 4 slabs → 2 slabs over the union (= old, bigger) communicator:
        // ranks 2 and 3 send everything and end empty, ready to park.
        let (res, _) = Machine::new(4).run(|comm| {
            let old = Decomposition::new([4, 1, 1], 16.0, 2.0);
            let new = Decomposition::new([2, 1, 1], 16.0, 2.0);
            let (lo, _) = old.domain_of(comm.rank());
            let actives: Vec<(u64, f32)> = (0..4u64)
                .map(|i| (comm.rank() as u64 * 100 + i, (lo[0] + i as f64) as f32))
                .collect();
            let mut parts = store(&actives, &[]);
            try_rehome(&comm, &new, &mut parts).unwrap();
            (parts.n_active, parts.id.clone())
        });
        assert_eq!(res[0].0 + res[1].0, 16, "survivors own everything");
        assert_eq!(res[2].0, 0, "retiring rank 2 empty");
        assert_eq!(res[3].0, 0, "retiring rank 3 empty");
        assert!(res[0].1.iter().all(|&id| id < 200), "rank 0 owns the low half");
        assert!(res[1].1.iter().all(|&id| id >= 200), "rank 1 owns the high half");
    }

    /// A particle whose active copy died is resurrected once, from the
    /// lowest donor rank's replica, whichever order the donors arrive in.
    #[test]
    fn rehome_resurrects_from_lowest_donor() {
        let d = Decomposition::new([3, 1, 1], 24.0, 2.0);
        let (res, _) = Machine::new(3).run(|comm| {
            // Ranks 0 and 2 both hold a replica of id 7 (owned by the
            // dead rank 1, now a blank replacement), marked by donor.
            let mut parts = Particles::default();
            if comm.rank() != 1 {
                parts.push(Packed { vy: comm.rank() as f32, ..at(9.0, 7, -1.0) });
            }
            try_rehome(&comm, &d, &mut parts).unwrap();
            parts
        });
        assert_eq!(res[1].id, vec![7], "resurrected once, on its owner");
        assert_eq!(res[1].vy, vec![0.0], "the lowest donor's replica wins");
        assert!(res[0].is_empty() && res[2].is_empty());
    }

    /// Rehome with replicas still held, over the union of a 2→3 grow and
    /// of a 3→2 shrink: each of the twelve actives is adopted exactly
    /// once, on its new owner, and a replica never displaces a live
    /// active — not even one donated by a lower rank.
    #[test]
    fn rehome_over_union_prefers_actives_to_replicas() {
        // (ranks before, ranks after, per-rank (actives, replicas)).
        type Layout = [(&'static [(u64, f32)], &'static [(u64, f32)]); 3];
        let grow: Layout = [
            (&[(0, 1.0), (1, 3.0), (2, 5.0), (3, 7.0), (4, 9.0), (5, 11.0)], &[(6, 13.0)]),
            (&[(6, 13.0), (7, 15.0), (8, 17.0), (9, 19.0), (10, 21.0), (11, 23.0)], &[(5, 11.0)]),
            (&[], &[]),
        ];
        let shrink: Layout = [
            (&[(0, 1.0), (1, 3.0), (2, 5.0), (3, 7.0)], &[(4, 9.0)]),
            (&[(4, 9.0), (5, 11.0), (6, 13.0), (7, 15.0)], &[(3, 7.0), (8, 17.0)]),
            (&[(8, 17.0), (9, 19.0), (10, 21.0), (11, 23.0)], &[(7, 15.0)]),
        ];
        for (to, layout) in [(3, grow), (2, shrink)] {
            let new = Decomposition::new([to, 1, 1], 24.0, 2.0);
            let (res, _) = Machine::new(3).run(|comm| {
                let (actives, replicas) = layout[comm.rank()];
                let mut parts = store(actives, replicas);
                try_rehome(&comm, &new, &mut parts).unwrap();
                parts
            });
            let mut all: Vec<u64> = Vec::new();
            for (rank, parts) in res.iter().enumerate() {
                assert_eq!(parts.n_active, parts.len(), "{to}: rank {rank} holds replicas");
                assert!(parts.id.is_sorted(), "{to}: rank {rank} unsorted: {:?}", parts.id);
                assert!(parts.vx.iter().all(|&v| v == 1.0), "{to}: a replica won on rank {rank}");
                if rank >= to {
                    assert!(parts.is_empty(), "{to}: rank {rank} is outside the new world");
                }
                for &x in &parts.x {
                    assert_eq!(new.owner_of([f64::from(x), 8.0, 8.0]), rank, "{to}: x={x}");
                }
                all.extend(&parts.id);
            }
            all.sort_unstable();
            assert_eq!(all, (0..12).collect::<Vec<u64>>(), "{to}: each active exactly once");
        }
    }

    #[test]
    fn overload_fraction_reported() {
        let mut p = Particles::default();
        for i in 0..10 {
            p.push(Packed {
                x: i as f32,
                y: 0.0,
                z: 0.0,
                vx: 0.0,
                vy: 0.0,
                vz: 0.0,
                id: i,
            });
        }
        p.n_active = 8;
        assert!((p.overload_fraction() - 0.25).abs() < 1e-12);
    }
}

#[cfg(test)]
mod gridhalo_tests {
    use super::gridhalo::{exchange_planes, fold_spill};
    use hacc_comm::Machine;

    /// Global reference field: plane index → value.
    fn plane_val(gx: usize) -> f64 {
        gx as f64 * 10.0 + 1.0
    }

    #[test]
    fn exchange_planes_wraps_ring() {
        let (p, lx, plane, h) = (4usize, 4, 3, 2);
        let (results, _) = Machine::new(p).run(move |comm| {
            let x0 = comm.rank() * lx;
            let local: Vec<f64> = (0..lx * plane)
                .map(|i| plane_val(x0 + i / plane))
                .collect();
            exchange_planes(&comm, &local, plane, h, (901, 902))
        });
        let n = p * lx;
        for (rank, ext) in results.iter().enumerate() {
            assert_eq!(ext.len(), (lx + 2 * h) * plane);
            let x0 = rank * lx;
            for pl in 0..lx + 2 * h {
                let gx = (x0 + n + pl - h) % n;
                for j in 0..plane {
                    assert_eq!(ext[pl * plane + j], plane_val(gx), "rank {rank} plane {pl}");
                }
            }
        }
    }

    /// Three fields in one message per direction, wrapped around the
    /// ring at 2 and 3 ranks.
    #[test]
    fn exchange_halos_wraps_three_fields() {
        use super::gridhalo::exchange_halos;
        for p in [2usize, 3] {
            let (lx, plane, h) = (3usize, 2, 2);
            let field_val = |k: usize, gx: usize| plane_val(gx) + 1000.0 * k as f64;
            let (results, _) = Machine::new(p).run(move |comm| {
                let x0 = comm.rank() * lx;
                let mut fields: [Vec<f64>; 3] = [0, 1, 2].map(|k| {
                    (0..lx * plane)
                        .map(|i| field_val(k, x0 + i / plane))
                        .collect()
                });
                let halos = exchange_halos(&comm, &fields, plane, h, (911, 912));
                for (k, f) in fields.iter_mut().enumerate() {
                    halos.extend(k, f);
                }
                fields
            });
            let n = p * lx;
            for (rank, fields) in results.iter().enumerate() {
                for (k, ext) in fields.iter().enumerate() {
                    assert_eq!(ext.len(), (lx + 2 * h) * plane);
                    for pl in 0..lx + 2 * h {
                        let gx = (rank * lx + n + pl - h) % n;
                        for j in 0..plane {
                            assert_eq!(
                                ext[pl * plane + j],
                                field_val(k, gx),
                                "p={p} rank {rank} field {k} plane {pl}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_spill_accumulates_on_owners() {
        // Each rank deposits 1.0 into every plane of its extended field
        // (own slab + hd spill on each side). After folding, an owned
        // plane holds 1.0 from its owner plus 1.0 per neighbor whose
        // spill reaches it.
        let (p, lx, plane, hd) = (4usize, 4, 2, 2);
        let (results, _) = Machine::new(p).run(move |comm| {
            let ext = vec![1.0f64; (lx + 2 * hd) * plane];
            fold_spill(&comm, &ext, plane, hd, (903, 904))
        });
        for local in &results {
            assert_eq!(local.len(), lx * plane);
            for pl in 0..lx {
                // Planes within hd of a face receive one neighbor spill.
                let want = 1.0
                    + f64::from(pl < hd)
                    + f64::from(pl >= lx - hd);
                for j in 0..plane {
                    assert_eq!(local[pl * plane + j], want, "plane {pl}");
                }
            }
        }
    }

    #[test]
    fn fold_then_exchange_roundtrip() {
        // Deposit mass only in the spill regions; after fold + exchange
        // the halo planes seen by each rank equal what its neighbors own.
        let (p, lx, plane, hd) = (3usize, 5, 4, 1);
        let (results, _) = Machine::new(p).run(move |comm| {
            let x0 = comm.rank() * lx;
            let mut ext = vec![0.0f64; (lx + 2 * hd) * plane];
            for pl in 0..lx + 2 * hd {
                let gx = (x0 + p * lx + pl - hd) % (p * lx);
                for j in 0..plane {
                    ext[pl * plane + j] = plane_val(gx) * 0.5;
                }
            }
            let local = fold_spill(&comm, &ext, plane, hd, (905, 906));
            exchange_planes(&comm, &local, plane, hd, (907, 908))
        });
        let n = p * lx;
        for (rank, ext) in results.iter().enumerate() {
            let x0 = rank * lx;
            for pl in 0..lx + 2 * hd {
                let gx = (x0 + n + pl - hd) % n;
                // Spill regions were deposited by the owner and both
                // neighbors of the boundary — owner keeps its own value
                // plus one folded copy at the faces.
                let base = plane_val(gx) * 0.5;
                let folded = if gx % lx < hd || gx % lx >= lx - hd {
                    base * 2.0
                } else {
                    base
                };
                for j in 0..plane {
                    assert!(
                        (ext[pl * plane + j] - folded).abs() < 1e-12,
                        "rank {rank} plane {pl} (gx {gx}): {} vs {folded}",
                        ext[pl * plane + j]
                    );
                }
            }
        }
    }
}
