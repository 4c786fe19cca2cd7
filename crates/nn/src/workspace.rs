//! Reusable scratch memory for the inference hot path.
//!
//! Every `infer` in this crate draws its intermediate tensors from a
//! [`Workspace`] instead of the global allocator: a buffer is *taken* for
//! the duration of a computation and *recycled* back into the pool when the
//! value is no longer needed. Because a fixed network evaluates the same
//! sequence of shapes on every call, the pool reaches a steady state after
//! the first evaluation and all subsequent evaluations perform **zero heap
//! allocations** — the property the diffusion sampler relies on for its
//! K-step denoising loop (verified by the `alloc_steady_state` integration
//! test at the workspace root).

use crate::Tensor;

/// A scratch arena of recyclable `f32` buffers (plus the U-Net's skip
/// stack), sized lazily by the first evaluation that uses it.
///
/// Workspaces are cheap to create but only pay off when reused: keep one
/// per thread and pass it to every `infer` call on that thread. A
/// `Workspace` is intentionally `!Sync`-shaped (all methods take
/// `&mut self`); cross-thread sharing is the caller's job via one
/// workspace per worker.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    skip_stack: Vec<Tensor>,
    steps: Vec<usize>,
    probs: Vec<f64>,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Takes a tensor of the given shape with **unspecified contents**
    /// (callers must fully overwrite it). Reuses the smallest pooled
    /// buffer with sufficient capacity; otherwise allocates (a one-time
    /// cost while the pool warms up).
    ///
    /// # Panics
    ///
    /// Panics on an invalid shape (empty or zero dimension).
    pub fn take_uninit(&mut self, shape: &[usize]) -> Tensor {
        let len: usize = shape.iter().product();
        let mut buf = self.grab(len);
        buf.resize(len, 0.0);
        Tensor::from_vec(shape, buf)
    }

    /// Takes an all-zero tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics on an invalid shape.
    pub fn take_zeroed(&mut self, shape: &[usize]) -> Tensor {
        let mut t = self.take_uninit(shape);
        t.data_mut().fill(0.0);
        t
    }

    /// Returns a tensor's buffer to the pool for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.push(t.into_vec());
    }

    /// Borrows the reusable skip-connection stack (empties it first). Pair
    /// with [`Workspace::put_skip_stack`] so the capacity is retained.
    pub(crate) fn take_skip_stack(&mut self) -> Vec<Tensor> {
        let mut stack = std::mem::take(&mut self.skip_stack);
        stack.clear();
        stack
    }

    /// Returns the skip stack taken by [`Workspace::take_skip_stack`].
    pub(crate) fn put_skip_stack(&mut self, stack: Vec<Tensor>) {
        self.skip_stack = stack;
    }

    /// Borrows the reusable step-index buffer, filled with `n` copies of
    /// `k` — the `steps` argument a lock-step micro-batch passes to
    /// [`crate::UNet::infer`] (every chain sits at the same diffusion
    /// step). Return it with [`Workspace::put_steps`] so the capacity is
    /// retained and steady-state batched inference stays allocation-free.
    pub fn take_steps(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut steps = std::mem::take(&mut self.steps);
        steps.clear();
        steps.resize(n, k);
        steps
    }

    /// Returns the buffer taken by [`Workspace::take_steps`].
    pub fn put_steps(&mut self, steps: Vec<usize>) {
        self.steps = steps;
    }

    /// Borrows the reusable `f64` staging buffer, sized to `len` with
    /// **unspecified contents** (callers must fully overwrite it). The
    /// sampler uses it to stage per-lane probability/mask vectors — e.g.
    /// the pre-guidance copy of a lane's `p1` — without allocating in the
    /// denoising loop. Return it with [`Workspace::put_probs`] so the
    /// capacity is retained.
    pub fn take_probs(&mut self, len: usize) -> Vec<f64> {
        let mut probs = std::mem::take(&mut self.probs);
        probs.resize(len, 0.0);
        probs
    }

    /// Returns the buffer taken by [`Workspace::take_probs`].
    pub fn put_probs(&mut self, probs: Vec<f64>) {
        self.probs = probs;
    }

    /// Pops the smallest pooled buffer able to hold `len` elements without
    /// reallocating (best fit), or allocates a new one. Under first fit a
    /// small take could claim a large buffer that a later, larger take of
    /// the same evaluation then had to allocate afresh, so whether the
    /// pool settled hung on the order of takes: with a residual block's
    /// time projection taken before its first convolution, the
    /// shipped-width sampler still allocated after two warm-up chains.
    fn grab(&mut self, len: usize) -> Vec<f32> {
        let best = (0..self.pool.len())
            .filter(|&i| self.pool[i].capacity() >= len)
            .min_by_key(|&i| self.pool[i].capacity());
        match best {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                buf.truncate(len);
                buf
            }
            None => Vec::with_capacity(len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let mut ws = Workspace::new();
        let t = ws.take_uninit(&[4, 8]);
        assert_eq!(t.shape(), &[4, 8]);
        assert_eq!(t.len(), 32);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        // Same-size retake reuses the very same buffer.
        let t2 = ws.take_uninit(&[32]);
        assert_eq!(t2.data().as_ptr(), ptr);
        // A smaller request also fits in the pooled buffer.
        ws.recycle(t2);
        let t3 = ws.take_uninit(&[2, 2]);
        assert_eq!(t3.data().as_ptr(), ptr);
        assert_eq!(t3.len(), 4);
    }

    #[test]
    fn take_serves_the_smallest_buffer_that_fits() {
        let mut ws = Workspace::new();
        ws.recycle(Tensor::from_vec(&[64], vec![0.0; 64]));
        ws.recycle(Tensor::from_vec(&[16], vec![0.0; 16]));
        let t = ws.take_uninit(&[16]);
        assert_eq!(t.into_vec().capacity(), 16);
        assert_eq!(ws.pool.len(), 1);
        assert_eq!(ws.pool[0].capacity(), 64);
    }

    #[test]
    fn take_larger_than_every_pooled_buffer_allocates_afresh() {
        // No pooled buffer is grown in place: a take that none fits gets a
        // new buffer and leaves the pool as it was.
        let mut ws = Workspace::new();
        ws.recycle(Tensor::from_vec(&[8], vec![0.0; 8]));
        ws.recycle(Tensor::from_vec(&[16], vec![0.0; 16]));
        let t = ws.take_uninit(&[17]);
        assert_eq!(t.len(), 17);
        let mut caps: Vec<usize> = ws.pool.iter().map(Vec::capacity).collect();
        caps.sort_unstable();
        assert_eq!(caps, [8, 16]);
    }

    #[test]
    fn take_zeroed_is_zero_after_reuse() {
        let mut ws = Workspace::new();
        let mut t = ws.take_uninit(&[8]);
        t.data_mut().fill(3.5);
        ws.recycle(t);
        let z = ws.take_zeroed(&[8]);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn steps_buffer_round_trips_and_keeps_capacity() {
        let mut ws = Workspace::new();
        let steps = ws.take_steps(7, 5);
        assert_eq!(steps, vec![7; 5]);
        let ptr = steps.as_ptr();
        let cap = steps.capacity();
        ws.put_steps(steps);
        // A same-or-smaller retake reuses the very same allocation.
        let again = ws.take_steps(3, 4);
        assert_eq!(again, vec![3; 4]);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.capacity(), cap);
        ws.put_steps(again);
    }

    #[test]
    fn probs_buffer_round_trips_and_keeps_capacity() {
        let mut ws = Workspace::new();
        let mut probs = ws.take_probs(6);
        assert_eq!(probs.len(), 6);
        probs.fill(0.25);
        let ptr = probs.as_ptr();
        let cap = probs.capacity();
        ws.put_probs(probs);
        let again = ws.take_probs(4);
        assert_eq!(again.len(), 4);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.capacity(), cap);
        ws.put_probs(again);
    }

    #[test]
    fn steady_state_needs_no_new_buffers() {
        let mut ws = Workspace::new();
        // Warm up with a representative shape sequence.
        let shapes: &[&[usize]] = &[&[16, 256], &[144, 256], &[1, 16, 16, 16]];
        for _ in 0..3 {
            let taken: Vec<Tensor> = shapes.iter().map(|s| ws.take_uninit(s)).collect();
            for t in taken {
                ws.recycle(t);
            }
        }
        assert_eq!(ws.pool.len(), shapes.len());
    }
}
