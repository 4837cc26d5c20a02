//! The mapping function Ω : C → T (paper Eqs. 5–6).
//!
//! A [`Mapping`] assigns every task to a distinct tile. Internally it is
//! stored as a *full permutation* of the tiles: positions `0..task_count`
//! hold the tiles of the tasks, positions `task_count..` hold the free
//! tiles. This makes the neighbourhood used by the search algorithms —
//! "swap the contents of two tiles", where one side may be empty —
//! a single uniform operation, [`Move::Swap`].
//!
//! # Examples
//!
//! ```
//! use phonoc_core::mapping::Mapping;
//! use phonoc_topo::TileId;
//!
//! // 3 tasks on 4 tiles: tasks 0,1,2 on tiles 2,0,3; tile 1 free.
//! let m = Mapping::from_assignment(vec![TileId(2), TileId(0), TileId(3)], 4).unwrap();
//! assert_eq!(m.tile_of_task(0), TileId(2));
//! assert_eq!(m.task_on_tile(TileId(1)), None);
//! ```

use crate::error::CoreError;
use phonoc_topo::TileId;
use rand::seq::SliceRandom;
use rand::Rng;

/// An elementary modification of a [`Mapping`] — the unit of the
/// move-based search API.
///
/// A move exchanges the contents of two positions of the underlying
/// tile permutation, which keeps the mapping valid by construction.
/// Both positions below `task_count` swap two tasks' tiles; one in the
/// free tail moves a task onto a free tile (which only exists when
/// `task_count < tile_count`). This is the paper's R-PBLA neighbourhood.
///
/// Moves are evaluated incrementally by
/// [`Evaluator::evaluate_delta`](crate::evaluator::Evaluator::evaluate_delta):
/// only the communications touching the two affected tiles are
/// re-scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Exchange the contents of permutation positions `.0` and `.1`.
    Swap(usize, usize),
}

impl Move {
    /// A uniformly random swap of two *distinct* positions out of
    /// `positions` (or the identity swap when fewer than two exist) —
    /// the shared sampling behind [`Mapping::random_swap`] and the
    /// engine's random-move helpers.
    #[must_use]
    pub fn random_swap<R: Rng + ?Sized>(positions: usize, rng: &mut R) -> Move {
        if positions < 2 {
            return Move::Swap(0, 0);
        }
        let a = rng.gen_range(0..positions);
        let mut b = rng.gen_range(0..positions - 1);
        if b >= a {
            b += 1;
        }
        Move::Swap(a, b)
    }

    /// Resolves the move to the canonical `(a, b)` position pair of
    /// `mapping`'s permutation, with `a <= b`.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    #[must_use]
    pub fn positions(&self, mapping: &Mapping) -> (usize, usize) {
        let Move::Swap(a, b) = *self;
        assert!(
            a < mapping.tile_count() && b < mapping.tile_count(),
            "swap position out of range"
        );
        (a.min(b), a.max(b))
    }

    /// Whether applying this move cannot change any evaluation: both
    /// positions are identical or both lie in the free tail.
    #[must_use]
    pub fn is_neutral(&self, mapping: &Mapping) -> bool {
        let (a, b) = self.positions(mapping);
        a == b || a >= mapping.task_count()
    }
}

/// An injective assignment of tasks to tiles (paper conditions 5 and 6).
#[derive(Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Permutation of all tiles; the first `task_count` entries are the
    /// mapped tiles, the rest are free.
    perm: Vec<TileId>,
    task_count: usize,
}

/// `clone_from` reuses the destination's buffer, so scans that score
/// many moved copies of one mapping allocate nothing per copy.
impl Clone for Mapping {
    fn clone(&self) -> Mapping {
        Mapping {
            perm: self.perm.clone(),
            task_count: self.task_count,
        }
    }

    fn clone_from(&mut self, source: &Mapping) {
        self.perm.clone_from(&source.perm);
        self.task_count = source.task_count;
    }
}

impl Mapping {
    /// Builds a mapping from an explicit task→tile assignment, filling
    /// the free-tile tail automatically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidMapping`] if a tile index is out of
    /// range or a tile is used twice, and [`CoreError::TooManyTasks`] if
    /// there are more tasks than tiles.
    pub fn from_assignment(
        assignment: Vec<TileId>,
        tile_count: usize,
    ) -> Result<Mapping, CoreError> {
        let mut mapping = Mapping::identity(0, tile_count);
        mapping.reassign(&assignment)?;
        Ok(mapping)
    }

    /// Rewrites this mapping in place into the one
    /// [`Mapping::from_assignment`] builds from `assignment` on the same
    /// tiles: task `i` on `assignment[i]`, the free tiles after them in
    /// ascending order. Reuses the permutation buffer, so a caller that
    /// rebuilds one mapping many times (GA offspring) allocates nothing.
    ///
    /// # Errors
    ///
    /// The errors of [`Mapping::from_assignment`]. The mapping stays
    /// valid: unchanged after [`CoreError::TooManyTasks`], the identity
    /// permutation with no tasks after [`CoreError::InvalidMapping`].
    pub fn reassign(&mut self, assignment: &[TileId]) -> Result<(), CoreError> {
        /// Marks a tile some task occupies while the buffer serves as a
        /// per-tile table.
        const TAKEN: TileId = TileId(usize::MAX);
        let tile_count = self.perm.len();
        let task_count = assignment.len();
        if task_count > tile_count {
            return Err(CoreError::TooManyTasks {
                tasks: task_count,
                tiles: tile_count,
            });
        }
        self.perm.fill(TileId(0));
        for &t in assignment {
            let error = if t.0 >= tile_count {
                format!("tile {t} out of range (tile count {tile_count})")
            } else if self.perm[t.0] == TAKEN {
                format!("tile {t} hosts two tasks (condition 6)")
            } else {
                self.perm[t.0] = TAKEN;
                continue;
            };
            *self = Mapping::identity(0, tile_count);
            return Err(CoreError::InvalidMapping(error));
        }
        // Free tiles fill the tail from the top down: the slot written
        // for tile `t` is never below `t`, so every table entry is read
        // before it is overwritten.
        let mut slot = tile_count;
        for t in (0..tile_count).rev() {
            if self.perm[t] != TAKEN {
                slot -= 1;
                self.perm[slot] = TileId(t);
            }
        }
        debug_assert_eq!(slot, task_count);
        self.perm[..task_count].copy_from_slice(assignment);
        self.task_count = task_count;
        Ok(())
    }

    /// A uniformly random valid mapping of `task_count` tasks onto
    /// `tile_count` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `task_count > tile_count`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(task_count: usize, tile_count: usize, rng: &mut R) -> Mapping {
        assert!(
            task_count <= tile_count,
            "cannot map {task_count} tasks onto {tile_count} tiles"
        );
        let mut m = Mapping::identity(task_count, tile_count);
        m.reshuffle(rng);
        m
    }

    /// Redraws this mapping in place as a uniformly random one of the
    /// same shape, with exactly the RNG calls [`Mapping::random`]
    /// makes: the same generator state yields the same mapping either
    /// way, without allocating.
    pub fn reshuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for (i, t) in self.perm.iter_mut().enumerate() {
            *t = TileId(i);
        }
        self.perm.shuffle(rng);
    }

    /// The identity mapping: task `i` on tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `task_count > tile_count`.
    #[must_use]
    pub fn identity(task_count: usize, tile_count: usize) -> Mapping {
        assert!(task_count <= tile_count);
        Mapping {
            perm: (0..tile_count).map(TileId).collect(),
            task_count,
        }
    }

    /// Number of mapped tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.task_count
    }

    /// Number of tiles (mapped + free).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.perm.len()
    }

    /// The tile hosting `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task >= task_count`.
    #[must_use]
    pub fn tile_of_task(&self, task: usize) -> TileId {
        assert!(task < self.task_count, "task {task} out of range");
        self.perm[task]
    }

    /// The task hosted on `tile`, or `None` if the tile is free.
    #[must_use]
    pub fn task_on_tile(&self, tile: TileId) -> Option<usize> {
        self.perm[..self.task_count].iter().position(|&t| t == tile)
    }

    /// The task→tile assignment as a slice (`assignment()[task]`).
    #[must_use]
    pub fn assignment(&self) -> &[TileId] {
        &self.perm[..self.task_count]
    }

    /// Full permutation view (mapped tiles then free tiles).
    #[must_use]
    pub fn permutation(&self) -> &[TileId] {
        &self.perm
    }

    /// Applies a random position swap (used by mutation operators).
    pub fn random_swap<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mv = self.random_swap_move(rng);
        self.apply_move(mv);
    }

    /// Draws the same distribution of swaps as [`Mapping::random_swap`],
    /// but returns it as a [`Move`] for incremental evaluation instead
    /// of applying it.
    #[must_use]
    pub fn random_swap_move<R: Rng + ?Sized>(&self, rng: &mut R) -> Move {
        Move::random_swap(self.perm.len(), rng)
    }

    /// Applies `mv` in place.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Move::positions`].
    pub fn apply_move(&mut self, mv: Move) {
        let (a, b) = mv.positions(self);
        self.perm.swap(a, b);
    }

    /// Returns a copy with `mv` applied.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Move::positions`].
    #[must_use]
    pub fn with_move(&self, mv: Move) -> Mapping {
        let mut m = self.clone();
        m.apply_move(mv);
        m
    }

    /// Validity invariant: the permutation really is a permutation of
    /// `0..tile_count`. Used by tests and `debug_assert!`s.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let mut seen = vec![false; self.perm.len()];
        for &t in &self.perm {
            if t.0 >= self.perm.len() || seen[t.0] {
                return false;
            }
            seen[t.0] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_assignment_fills_free_tail() {
        let m = Mapping::from_assignment(vec![TileId(2), TileId(0)], 4).unwrap();
        assert_eq!(m.task_count(), 2);
        assert_eq!(m.tile_count(), 4);
        assert!(m.is_valid());
        assert_eq!(m.tile_of_task(0), TileId(2));
        assert_eq!(m.task_on_tile(TileId(0)), Some(1));
        assert_eq!(m.task_on_tile(TileId(3)), None);
        // Free tail contains exactly the unused tiles.
        let tail: Vec<usize> = m.permutation()[2..].iter().map(|t| t.0).collect();
        assert_eq!(tail, vec![1, 3]);
    }

    #[test]
    fn reassign_rebuilds_what_from_assignment_builds() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reused = Mapping::random(3, 9, &mut rng);
        for tasks in [0, 1, 4, 8, 9] {
            for _ in 0..20 {
                let source = Mapping::random(tasks, 9, &mut rng);
                let assignment = source.assignment().to_vec();
                reused.reassign(&assignment).unwrap();
                assert_eq!(reused, Mapping::from_assignment(assignment, 9).unwrap());
            }
        }
        // A rejected assignment leaves a valid, task-free mapping.
        let err = reused.reassign(&[TileId(4), TileId(4)]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidMapping(_)));
        assert_eq!(reused, Mapping::identity(0, 9));
        assert!(reused.reassign(&[TileId(9)]).is_err());
        assert!(reused.is_valid());
        // Too many tasks leaves it untouched.
        let before = Mapping::from_assignment(vec![TileId(3)], 9).unwrap();
        reused.clone_from(&before);
        let err = reused.reassign(&[TileId(0); 10]).unwrap_err();
        assert!(matches!(err, CoreError::TooManyTasks { .. }));
        assert_eq!(reused, before);
    }

    #[test]
    fn rejects_duplicate_tiles() {
        let err = Mapping::from_assignment(vec![TileId(1), TileId(1)], 4).unwrap_err();
        assert!(matches!(err, CoreError::InvalidMapping(_)));
    }

    #[test]
    fn rejects_out_of_range_tiles() {
        let err = Mapping::from_assignment(vec![TileId(9)], 4).unwrap_err();
        assert!(matches!(err, CoreError::InvalidMapping(_)));
    }

    #[test]
    fn rejects_too_many_tasks() {
        let err = Mapping::from_assignment((0..5).map(TileId).collect(), 4).unwrap_err();
        assert!(matches!(err, CoreError::TooManyTasks { .. }));
    }

    #[test]
    fn random_mappings_are_valid_and_diverse() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50 {
            let m = Mapping::random(5, 9, &mut rng);
            assert!(m.is_valid());
            distinct.insert(m.assignment().to_vec());
        }
        assert!(distinct.len() > 10, "random mappings look degenerate");
    }

    #[test]
    fn swap_moves_cover_task_task_and_task_free() {
        let mut m = Mapping::from_assignment(vec![TileId(0), TileId(1)], 3).unwrap();
        // Task-task swap.
        m.apply_move(Move::Swap(0, 1));
        assert_eq!(m.tile_of_task(0), TileId(1));
        assert_eq!(m.tile_of_task(1), TileId(0));
        // Task-free swap: task 0 moves onto the free tile 2.
        m.apply_move(Move::Swap(0, 2));
        assert_eq!(m.tile_of_task(0), TileId(2));
        assert_eq!(m.task_on_tile(TileId(1)), None);
        assert!(m.is_valid());
    }

    #[test]
    fn with_move_does_not_mutate_original() {
        let m = Mapping::identity(2, 4);
        let s = m.with_move(Move::Swap(0, 3));
        assert_eq!(m.tile_of_task(0), TileId(0));
        assert_eq!(s.tile_of_task(0), TileId(3));
    }

    #[test]
    fn random_swap_preserves_validity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Mapping::random(6, 9, &mut rng);
        for _ in 0..100 {
            m.random_swap(&mut rng);
            assert!(m.is_valid());
        }
    }

    #[test]
    fn swap_order_is_irrelevant() {
        let m = Mapping::from_assignment(vec![TileId(2), TileId(0)], 4).unwrap();
        assert_eq!(m.with_move(Move::Swap(1, 0)), m.with_move(Move::Swap(0, 1)));
        assert_eq!(Move::Swap(3, 1).positions(&m), (1, 3));
    }

    #[test]
    fn neutral_moves_are_detected() {
        let m = Mapping::from_assignment(vec![TileId(2), TileId(0)], 4).unwrap();
        assert!(Move::Swap(1, 1).is_neutral(&m));
        assert!(Move::Swap(2, 3).is_neutral(&m), "free-free swap");
        assert!(!Move::Swap(0, 1).is_neutral(&m));
        assert!(!Move::Swap(0, 3).is_neutral(&m), "task-free swap matters");
    }

    #[test]
    fn random_swap_move_mirrors_random_swap() {
        let mut setup = StdRng::seed_from_u64(1);
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        let mut m1 = Mapping::random(5, 8, &mut setup);
        let mut m2 = m1.clone();
        for _ in 0..50 {
            m1.random_swap(&mut a);
            let mv = m2.random_swap_move(&mut b);
            m2.apply_move(mv);
            assert_eq!(m1, m2);
        }
    }

    #[test]
    fn identity_mapping() {
        let m = Mapping::identity(3, 5);
        for i in 0..3 {
            assert_eq!(m.tile_of_task(i), TileId(i));
        }
        assert!(m.is_valid());
    }
}
