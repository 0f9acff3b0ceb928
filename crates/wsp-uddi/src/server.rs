//! Hosting glue: a registry behind the lightweight HTTP server (real or
//! simulated).

use crate::api::UddiApi;
use crate::registry::Registry;
use crate::wire::{read_request, write_response, UddiRequest, UddiResponse};
use std::sync::Arc;
use wsp_http::{HttpHandler, Request, Response, Router, TcpServer};

/// Conventional path of the registry service on its host.
pub const REGISTRY_PATH: &str = "uddi";

/// Build an HTTP handler exposing `registry` over SOAP.
pub fn registry_handler(registry: Registry) -> HttpHandler {
    let api = UddiApi::new(registry);
    Arc::new(move |request: &Request| serve_http(request, |request| api.process(request)))
}

/// One SOAP-over-HTTP exchange with a registry that answers a request
/// as `answer` does: the body read as a request, the answer written
/// back. SOAP faults are carried on HTTP 500 per the SOAP HTTP binding;
/// non-SOAP requests get 400.
pub fn serve_http(
    request: &Request,
    answer: impl FnOnce(&UddiRequest<'_>) -> UddiResponse,
) -> Response {
    let response = match read_request(&request.body_str()) {
        None => return Response::bad_request("body is not a SOAP envelope"),
        Some(Ok(request)) => answer(&request),
        Some(Err(fault)) => UddiResponse::Fault(fault),
    };
    let mut http = match response {
        UddiResponse::Fault(_) => Response::new(500, "Internal Server Error"),
        _ => Response::new(200, "OK"),
    };
    http.body = wsp_xml::BufPool::global().take();
    write_response(&response, &mut http.body);
    http.headers
        .set("Content-Type", wsp_soap::constants::CONTENT_TYPE);
    http
}

/// A registry running on its own lightweight TCP host.
pub struct RegistryServer {
    pub registry: Registry,
    server: TcpServer,
}

impl RegistryServer {
    /// Launch on `127.0.0.1:port` (0 = ephemeral).
    pub fn launch(port: u16) -> std::io::Result<RegistryServer> {
        let registry = Registry::new();
        let router = Router::new();
        router.deploy(REGISTRY_PATH, registry_handler(registry.clone()));
        let server = TcpServer::launch(port, router)?;
        Ok(RegistryServer { registry, server })
    }

    /// The URI clients point at.
    pub fn uri(&self) -> String {
        self.server.service_uri(REGISTRY_PATH)
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::UddiClient;
    use crate::model::{BindingTemplate, BusinessService};
    use crate::query::ServiceQuery;

    #[test]
    fn full_network_publish_and_locate() {
        let server = RegistryServer::launch(0).unwrap();
        let client = UddiClient::http(server.uri());

        let saved = client
            .save_service(
                &BusinessService::new("", "biz", "EchoService")
                    .with_binding(BindingTemplate::new("", "http://h:9/Echo")),
            )
            .unwrap();
        assert!(saved.key.starts_with("uuid:svc-"));

        let found = client.locate(&ServiceQuery::by_name("Echo%")).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].bindings[0].access_point, "http://h:9/Echo");
        server.shutdown();
    }

    #[test]
    fn fault_over_http_maps_to_500_and_back() {
        let server = RegistryServer::launch(0).unwrap();
        let client = UddiClient::http(server.uri());
        let err = client.get_tmodel("uuid:ghost").unwrap_err();
        assert!(matches!(err, crate::client::UddiError::Fault(_)), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn non_soap_body_is_bad_request() {
        let server = RegistryServer::launch(0).unwrap();
        let uri = server.uri();
        let parsed = wsp_http::HttpUri::parse(&uri).unwrap();
        let response = wsp_http::http_call(
            &parsed.host,
            parsed.port,
            Request::post(parsed.target.clone(), "text/plain", "hello"),
        )
        .unwrap();
        assert_eq!(response.status, 400);
        server.shutdown();
    }

    #[test]
    fn registry_shared_with_host_process() {
        // The embedding application can use the registry object directly
        // while remote clients use HTTP — same store.
        let server = RegistryServer::launch(0).unwrap();
        server
            .registry
            .save_service(BusinessService::new("", "b", "Local"));
        let client = UddiClient::http(server.uri());
        assert_eq!(client.find_services(&ServiceQuery::all()).unwrap().len(), 1);
        server.shutdown();
    }
}
