//! Bounded FIFO channels with `sc_fifo`-style event notification.
//!
//! Because kernel processes are event-driven rather than blocking threads,
//! the blocking `read`/`write` of `sc_fifo` map to `try_get`/`try_put` plus
//! `DataWritten`/`DataRead` notifications delivered to subscribers in the
//! next delta cycle — the standard split-transaction encoding of blocking
//! channel semantics.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

use crate::error::SimResult;
use crate::event::{ComponentId, FifoIdx};
use crate::json::{ju64, Json};
use crate::snapshot::{self as snap, SnapPrim};

/// Typed handle to a FIFO registered with a simulator.
pub struct FifoRef<T> {
    pub(crate) idx: FifoIdx,
    _marker: PhantomData<fn() -> T>,
}

impl<T> FifoRef<T> {
    pub(crate) fn new(idx: FifoIdx) -> Self {
        FifoRef {
            idx,
            _marker: PhantomData,
        }
    }

    /// Raw channel index.
    pub fn index(&self) -> FifoIdx {
        self.idx
    }
}

impl<T> Clone for FifoRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FifoRef<T> {}

impl<T> fmt::Debug for FifoRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FifoRef({})", self.idx)
    }
}

pub(crate) struct FifoSlot<T: 'static> {
    pub name: String,
    pub capacity: usize,
    pub items: VecDeque<T>,
    pub subscribers: Vec<ComponentId>,
    pub total_written: u64,
    pub total_read: u64,
    pub high_watermark: usize,
}

impl<T: 'static> FifoSlot<T> {
    pub fn new(name: String, capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be at least 1");
        FifoSlot {
            name,
            capacity,
            items: VecDeque::with_capacity(capacity.min(1024)),
            subscribers: Vec::new(),
            total_written: 0,
            total_read: 0,
            high_watermark: 0,
        }
    }

    pub fn try_put(&mut self, v: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(v);
        }
        self.items.push_back(v);
        self.total_written += 1;
        self.high_watermark = self.high_watermark.max(self.items.len());
        Ok(())
    }

    pub fn try_get(&mut self) -> Option<T> {
        let v = self.items.pop_front();
        if v.is_some() {
            self.total_read += 1;
        }
        v
    }
}

/// Type-erased view for the kernel's bookkeeping.
pub(crate) trait AnyFifoSlot: Any {
    fn name(&self) -> &str;
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
    fn subscribers(&self) -> &[ComponentId];
    fn subscribe(&mut self, c: ComponentId);
    fn total_written(&self) -> u64;
    fn total_read(&self) -> u64;
    fn high_watermark(&self) -> usize;
    /// The slot's snapshot entry.
    fn snapshot_json(&self) -> Json;
    /// Restore the slot from an entry written by `snapshot_json`.
    fn restore_json(&mut self, state: &Json) -> SimResult<()>;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: SnapPrim> AnyFifoSlot for FifoSlot<T> {
    fn name(&self) -> &str {
        &self.name
    }
    fn len(&self) -> usize {
        self.items.len()
    }
    fn capacity(&self) -> usize {
        self.capacity
    }
    fn subscribers(&self) -> &[ComponentId] {
        &self.subscribers
    }
    fn subscribe(&mut self, c: ComponentId) {
        if !self.subscribers.contains(&c) {
            self.subscribers.push(c);
        }
    }
    fn total_written(&self) -> u64 {
        self.total_written
    }
    fn total_read(&self) -> u64 {
        self.total_read
    }
    fn high_watermark(&self) -> usize {
        self.high_watermark
    }
    fn snapshot_json(&self) -> Json {
        Json::obj()
            .with("name", Json::from(self.name.as_str()))
            .with("type", Json::from(T::TAG))
            .with("items", Json::Arr(self.items.iter().map(T::enc).collect()))
            .with("total_written", ju64(self.total_written))
            .with("total_read", ju64(self.total_read))
            .with("high_watermark", ju64(self.high_watermark as u64))
            .with("subs", snap::usize_list_json(&self.subscribers))
    }
    fn restore_json(&mut self, state: &Json) -> SimResult<()> {
        snap::check_tag::<T>("fifo", &self.name, state)?;
        let mut items = VecDeque::new();
        for it in snap::arr_field(state, "items")? {
            items.push_back(T::dec(it).ok_or_else(|| {
                snap::err(format!("fifo {:?}: bad {} item {it}", self.name, T::TAG))
            })?);
        }
        if items.len() > self.capacity {
            return Err(snap::err(format!(
                "fifo {:?}: snapshot holds {} items, capacity is {}",
                self.name,
                items.len(),
                self.capacity
            )));
        }
        self.items = items;
        self.total_written = snap::u64_field(state, "total_written")?;
        self.total_read = snap::u64_field(state, "total_read")?;
        self.high_watermark = snap::usize_field(state, "high_watermark")?;
        self.subscribers = snap::usize_list(state, "subs")?;
        Ok(())
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_order_is_fifo() {
        let mut f = FifoSlot::new("f".into(), 4);
        f.try_put(1u32).unwrap();
        f.try_put(2).unwrap();
        f.try_put(3).unwrap();
        assert_eq!(f.try_get(), Some(1));
        assert_eq!(f.try_get(), Some(2));
        assert_eq!(f.try_get(), Some(3));
        assert_eq!(f.try_get(), None);
        assert_eq!(f.total_written, 3);
        assert_eq!(f.total_read, 3);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut f = FifoSlot::new("f".into(), 2);
        f.try_put(b'a').unwrap();
        f.try_put(b'b').unwrap();
        assert_eq!(f.try_put(b'c'), Err(b'c'));
        assert_eq!(f.len(), 2);
        assert_eq!(f.high_watermark, 2);
        f.try_get();
        f.try_put(b'c').unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = FifoSlot::<u8>::new("bad".into(), 0);
    }

    #[test]
    fn conservation_written_equals_read_plus_resident() {
        let mut f = FifoSlot::new("f".into(), 8);
        for i in 0..20u64 {
            let _ = f.try_put(i);
            if i % 3 == 0 {
                f.try_get();
            }
        }
        assert_eq!(f.total_written, f.total_read + f.len() as u64);
    }
}
