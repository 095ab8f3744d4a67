//! Integration: degenerate inputs and failure paths across the stack.

use spq_graph::geo::Point;
use spq_graph::{GraphBuilder, GraphError};
use spq_serve::BackendKind;

#[test]
fn builder_rejects_malformed_graphs() {
    assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);

    let mut b = GraphBuilder::new();
    b.add_node(Point::new(0, 0));
    b.add_node(Point::new(1, 1));
    // No edges: two components.
    assert!(matches!(
        b.build().unwrap_err(),
        GraphError::Disconnected { components: 2 }
    ));
}

#[test]
fn single_vertex_network_works_everywhere() {
    let mut b = GraphBuilder::new();
    b.add_node(Point::new(0, 0));
    let net = b.build().unwrap();
    for kind in BackendKind::PAPER {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);
        assert_eq!(q.distance(0, 0), Some(0), "{}", kind.name());
        let (d, path) = q.shortest_path(0, 0).unwrap();
        assert_eq!(d, 0);
        assert_eq!(path, vec![0]);
    }
}

#[test]
fn single_edge_network_works_everywhere() {
    let mut b = GraphBuilder::new();
    b.add_node(Point::new(0, 0));
    b.add_node(Point::new(10, 0));
    b.add_edge(0, 1, 7);
    let net = b.build().unwrap();
    for kind in BackendKind::PAPER {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);
        assert_eq!(q.distance(0, 1), Some(7), "{}", kind.name());
        let (d, path) = q.shortest_path(1, 0).unwrap();
        assert_eq!(d, 7);
        assert_eq!(path, vec![1, 0]);
    }
}

#[test]
fn duplicate_coordinates_stay_exact() {
    // Several vertices share coordinates: SILC's quadtree and PCPD's
    // block pairs cannot separate them spatially and must fall back to
    // their exception structures.
    let mut b = GraphBuilder::new();
    for i in 0..6 {
        b.add_node(Point::new((i / 2) * 10, 0)); // pairs share coordinates
    }
    for i in 0..5u32 {
        b.add_edge(i, i + 1, i + 1);
    }
    b.add_edge(0, 5, 100);
    let net = b.build().unwrap();
    let mut reference = spq_dijkstra::Dijkstra::new(net.num_nodes());
    for kind in BackendKind::PAPER {
        let built = kind.build(&net);
        let mut q = built.backend.session(&net);
        for s in 0..6u32 {
            reference.run(&net, s);
            for t in 0..6u32 {
                assert_eq!(
                    q.distance(s, t),
                    reference.distance(t),
                    "{} on ({s},{t})",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn zero_like_weights_are_clamped_by_generator_but_allowed_by_builder() {
    // The builder permits weight 0 (the paper's definition has no
    // positivity constraint); Dijkstra still terminates.
    let mut b = GraphBuilder::new();
    b.add_node(Point::new(0, 0));
    b.add_node(Point::new(1, 0));
    b.add_node(Point::new(2, 0));
    b.add_edge(0, 1, 0);
    b.add_edge(1, 2, 5);
    let net = b.build().unwrap();
    let mut d = spq_dijkstra::Dijkstra::new(3);
    d.run(&net, 0);
    assert_eq!(d.distance(1), Some(0));
    assert_eq!(d.distance(2), Some(5));
}
