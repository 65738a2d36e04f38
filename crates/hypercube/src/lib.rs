//! Hypercube link sequences for the multi-port Jacobi-ordering system.
//!
//! A *hypercube multicomputer* of dimension `d` (a `d`-cube) has `2^d` nodes
//! labelled `0..2^d`. Two nodes are neighbors (joined by a *link*) iff their
//! labels differ in exactly one bit; the link joining nodes that differ in
//! bit `i` is called *link `i`* (equivalently, *dimension `i`*).
//!
//! This crate provides what the ordering and simulation layers need from
//! that topology:
//!
//! * [`gray`] — the binary-reflected Gray code's link sequence (the
//!   canonical Hamiltonian path of a hypercube), the reference `mph-core`'s
//!   BR sequence is tested against;
//! * [`hamiltonian`] — link sequences as node paths, Hamiltonicity
//!   validation, and bounded search for Hamiltonian paths with a
//!   per-link usage budget (the "α budget" of the paper's minimum-α
//!   ordering);
//! * [`routing`] — the relay route around dead links ([`surviving_route`]),
//!   which on a clean cube is the e-cube (dimension-ordered) route.
//!
//! The central object shared with `mph-core` is the **link sequence**: a
//! `Vec<usize>` of link identifiers. A link sequence `s` of length
//! `2^e - 1` is an *`e`-sequence* when, starting from any node of an
//! `e`-cube and crossing the links of `s` in order, every node of the cube
//! is visited exactly once (a Hamiltonian path). Because crossing link `i`
//! is XOR with `1 << i`, this property is independent of the start node.

pub mod gray;
pub mod hamiltonian;
pub mod routing;

/// Node identifier inside a hypercube. Labels run from `0` to `2^d - 1` and
/// neighbor labels differ in exactly one bit.
pub type NodeId = usize;

pub use gray::gray_link_sequence;
pub use hamiltonian::{
    is_link_sequence_hamiltonian, link_sequence_to_path, search_hamiltonian_with_budget,
    validate_e_sequence, HamiltonianError,
};
pub use routing::surviving_route;
