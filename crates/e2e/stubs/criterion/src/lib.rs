//! Placeholder so the workspace's dev-dependency on `criterion` resolves offline; the
//! benchmark never compiles code that uses it.
