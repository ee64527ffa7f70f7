//! Placeholder so the workspace's dev-dependency on `proptest` resolves offline; the
//! benchmark never compiles code that uses it.
