//! E5 — container-less hosting vs the traditional container (claim C3).
//!
//! Two measurements:
//!
//! * the *real* wall-clock cost of WSPeer's lightweight path — launch
//!   the HTTP host, deploy a service, get the first successful
//!   response;
//! * the modelled cost of a 2004-era container doing the same
//!   (cold start, per-module deploy, optional restart-on-deploy),
//!   from [`crate::container::ContainerModel`].
//!
//! The paper's claim is qualitative ("cumbersome"); the reproduction
//! quantifies the orders-of-magnitude gap and the redeploy behaviour.

use crate::container::ContainerModel;
use std::sync::Arc;
use std::time::Instant;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{EventBus, Peer};
use wsp_uddi::Registry;
use wsp_wsdl::{ServiceDescriptor, Value};

/// One scenario's deploy-to-first-response time.
#[derive(Debug, Clone)]
pub struct E5Row {
    pub scenario: String,
    pub deploy_to_first_response_ms: f64,
    /// Whether the path supports redeploy without downtime.
    pub hot_redeploy: bool,
}

/// Measure the real lightweight path once.
pub fn lightweight_once() -> f64 {
    let registry = Registry::new();
    let started = Instant::now();
    let binding = HttpUddiBinding::with_local_registry(registry, EventBus::new());
    let peer = Peer::with_binding(&binding);
    let deployed = peer
        .server()
        .deploy(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .expect("deploy");
    // First real request over loopback TCP.
    let endpoint = deployed.primary_endpoint().unwrap().to_owned();
    let response =
        wsp_http::http_call_uri(&format!("{endpoint}?wsdl"), wsp_http::Request::get("/"))
            .expect("first request");
    assert!(response.is_success());
    started.elapsed().as_secs_f64() * 1000.0
}

/// Median of `n` lightweight measurements.
pub fn lightweight_ms(n: usize) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| lightweight_once()).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// The full comparison table.
pub fn rows() -> Vec<E5Row> {
    let lightweight = lightweight_ms(5);
    let restart = ContainerModel::default();
    let hot = ContainerModel::hot_deploy();
    vec![
        E5Row {
            scenario: "WSPeer lightweight host (measured)".into(),
            deploy_to_first_response_ms: lightweight,
            hot_redeploy: true,
        },
        E5Row {
            scenario: "container, cold start (modelled)".into(),
            deploy_to_first_response_ms: restart.time_to_available(0, false).as_millis_f64(),
            hot_redeploy: false,
        },
        E5Row {
            scenario: "container, restart-on-deploy, 5 modules (modelled)".into(),
            deploy_to_first_response_ms: restart.time_to_available(5, true).as_millis_f64(),
            hot_redeploy: false,
        },
        E5Row {
            scenario: "container, hot deploy while running (modelled)".into(),
            deploy_to_first_response_ms: hot.time_to_available(5, true).as_millis_f64(),
            hot_redeploy: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightweight_path_is_orders_of_magnitude_faster() {
        let lightweight = lightweight_ms(3);
        let container_cold = ContainerModel::default()
            .time_to_available(0, false)
            .as_millis_f64();
        assert!(
            container_cold > lightweight * 10.0,
            "lightweight {lightweight}ms vs container {container_cold}ms"
        );
        // Sanity: the real path completes in under a second on loopback.
        assert!(lightweight < 1_000.0, "{lightweight}ms");
    }

    #[test]
    fn table_has_all_scenarios() {
        let rows = rows();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].hot_redeploy);
        assert!(!rows[1].hot_redeploy);
    }
}
