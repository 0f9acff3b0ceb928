//! The registry vocabulary as values: every request this workspace
//! sends a registry ([`UddiRequest`]) and every answer ([`UddiResponse`]).
//!
//! Clients and registries meet on these values. In process a request is
//! handed over as it is; at the HTTP edges [`write_request`] /
//! [`write_response`] stream a value into the bytes the tree writer
//! makes of the same document, and [`read_request`] / [`read_response`]
//! read it back off the pull reader.
//!
//! The typed readers know what the writers write, give or take layout
//! and the order of attributes and children, and decline everything
//! else to the tree decoders ([`UddiRequest::from_payload`],
//! [`UddiResponse::from_envelope`]), which answer as the registry always
//! has: a fault, the shard map, an attribute or a child the vocabulary
//! does not define, a second child where one is read, a required one
//! missing, a number that does not parse, stray text, any XML error.
//! Only one of the two answers a document, so they cannot disagree.

use crate::model::{
    url_type, BindingTemplate, BusinessEntity, BusinessService, KeyedReference, TModel, UDDI_NS,
};
use crate::query::{ServiceQuery, FIND_SERVICE, FIND_SERVICE_DETAIL};
use std::borrow::Cow;
use std::io::Write;
use wsp_soap::typed::{next_tag, read_envelope, read_text, write_envelope};
use wsp_soap::{Body, Envelope, Fault, MessageHeaders};
use wsp_xml::{Element, Pull, PullReader, StreamWriter};

/// Namespace of the registry-plane control messages (`get_shardMap`,
/// `get_dataVersions`, the shard map and version documents).
pub const REGISTRY_NS: &str = "urn:wsp:registry";

/// A registry request: the operation, and the shard-map epoch a sharded
/// client routed it by (`mapEpoch`; a registry that is not sharded
/// ignores it). Borrowed where the client holds what it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct UddiRequest<'a> {
    pub op: UddiOp<'a>,
    pub map_epoch: Option<u64>,
}

/// The operations of [`UddiRequest`], one per request document.
#[derive(Debug, Clone, PartialEq)]
pub enum UddiOp<'a> {
    /// `find_service`: light summaries of the matching records.
    FindService(Cow<'a, ServiceQuery>),
    /// `find_serviceDetail`: the matching records, in one exchange.
    FindServiceDetail(Cow<'a, ServiceQuery>),
    /// `get_serviceDetail`: the records under these keys.
    GetServiceDetail(Cow<'a, [String]>),
    /// `save_service`: the tModels first, then the records.
    SaveService {
        tmodels: Cow<'a, [TModel]>,
        services: Cow<'a, [BusinessService]>,
    },
    SaveTModel(Cow<'a, [TModel]>),
    GetTModelDetail(Cow<'a, [String]>),
    DeleteService(Cow<'a, [String]>),
    SaveBusiness(Cow<'a, [BusinessEntity]>),
    /// `find_business` by name pattern (`%` when the request has none).
    FindBusiness(Cow<'a, str>),
    GetShardMap,
    GetDataVersions,
}

/// Summary entry returned by `find_service`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    pub key: String,
    pub name: String,
    pub business_key: String,
}

/// A snapshot of a discovery plane's per-shard data versions, stamped
/// with the map epoch it was read at. A shard whose version is
/// unchanged since the last snapshot has committed no save, delete or
/// lease expiry — cached locate results for it are still exact. This is
/// what the mediation gateway polls on its revalidation interval
/// instead of waiting out cache TTLs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataVersions {
    pub epoch: u64,
    /// Indexed by shard id.
    pub versions: Vec<u64>,
}

/// What a registry answers.
#[derive(Debug, Clone, PartialEq)]
pub enum UddiResponse {
    /// `serviceList`, answering `find_service`.
    ServiceList(Vec<ServiceInfo>),
    /// `serviceDetail`: the records a find, a get or a save answers with.
    ServiceDetail(Vec<BusinessService>),
    TModelDetail(Vec<TModel>),
    BusinessDetail(Vec<BusinessEntity>),
    /// `businessList`: `(key, name)` of each business found.
    BusinessList(Vec<(String, String)>),
    /// `dispositionReport`: how many records a delete removed.
    Disposition {
        deleted: usize,
    },
    DataVersions(DataVersions),
    /// A document outside the vocabulary, as its tree: the shard map.
    Other(Element),
    Fault(Fault),
}

impl<'a> UddiRequest<'a> {
    pub fn new(op: UddiOp<'a>) -> Self {
        UddiRequest {
            op,
            map_epoch: None,
        }
    }

    /// Stamped with the map epoch the sender believes in.
    pub fn stamped(mut self, epoch: u64) -> Self {
        self.map_epoch = Some(epoch);
        self
    }
}

impl UddiRequest<'static> {
    /// The tree decoder: what the request document `payload` asks for,
    /// or the fault a registry answers it with.
    pub fn from_payload(payload: &Element) -> Result<Self, Fault> {
        let texts = |local| {
            Cow::Owned(
                payload
                    .find_all(UDDI_NS, local)
                    .map(Element::text)
                    .collect(),
            )
        };
        fn all<T: Clone>(
            payload: &Element,
            local: &str,
            decode: fn(&Element) -> Option<T>,
        ) -> Result<Cow<'static, [T]>, Fault> {
            let decoded = payload.find_all(UDDI_NS, local).map(decode);
            let all = decoded.collect::<Option<Vec<T>>>();
            all.map(Cow::Owned)
                .ok_or_else(|| Fault::sender(format!("malformed {local}")))
        }
        let name = payload.name();
        let local = name.local_name();
        let query = || {
            let query = ServiceQuery::from_element(payload);
            query
                .map(Cow::Owned)
                .ok_or_else(|| Fault::sender(format!("malformed {local}")))
        };
        let op = match (name.namespace(), local) {
            (UDDI_NS, FIND_SERVICE) => UddiOp::FindService(query()?),
            (UDDI_NS, FIND_SERVICE_DETAIL) => UddiOp::FindServiceDetail(query()?),
            (UDDI_NS, "get_serviceDetail") => UddiOp::GetServiceDetail(texts("serviceKey")),
            (UDDI_NS, "save_service") => UddiOp::SaveService {
                tmodels: all(payload, "tModel", TModel::from_element)?,
                services: all(payload, "businessService", BusinessService::from_element)?,
            },
            (UDDI_NS, "save_tModel") => {
                UddiOp::SaveTModel(all(payload, "tModel", TModel::from_element)?)
            }
            (UDDI_NS, "get_tModelDetail") => UddiOp::GetTModelDetail(texts("tModelKey")),
            (UDDI_NS, "delete_service") => UddiOp::DeleteService(texts("serviceKey")),
            (UDDI_NS, "save_business") => UddiOp::SaveBusiness(all(
                payload,
                "businessEntity",
                BusinessEntity::from_element,
            )?),
            (UDDI_NS, "find_business") => {
                let pattern = payload.child_text(UDDI_NS, "name");
                UddiOp::FindBusiness(Cow::Owned(pattern.unwrap_or_else(|| "%".to_owned())))
            }
            (REGISTRY_NS, "get_shardMap") => UddiOp::GetShardMap,
            (REGISTRY_NS, "get_dataVersions") => UddiOp::GetDataVersions,
            _ => return Err(Fault::sender(format!("unknown UDDI operation {local:?}"))),
        };
        let epoch = payload.attribute_local("mapEpoch").map(str::parse);
        let map_epoch = epoch
            .transpose()
            .map_err(|_| Fault::sender("malformed mapEpoch"))?;
        Ok(UddiRequest { op, map_epoch })
    }
}

impl UddiOp<'_> {
    /// The request document's root: namespace and local name.
    pub fn name(&self) -> (&'static str, &'static str) {
        let local = match self {
            UddiOp::FindService(_) => FIND_SERVICE,
            UddiOp::FindServiceDetail(_) => FIND_SERVICE_DETAIL,
            UddiOp::GetServiceDetail(_) => "get_serviceDetail",
            UddiOp::SaveService { .. } => "save_service",
            UddiOp::SaveTModel(_) => "save_tModel",
            UddiOp::GetTModelDetail(_) => "get_tModelDetail",
            UddiOp::DeleteService(_) => "delete_service",
            UddiOp::SaveBusiness(_) => "save_business",
            UddiOp::FindBusiness(_) => "find_business",
            UddiOp::GetShardMap => return (REGISTRY_NS, "get_shardMap"),
            UddiOp::GetDataVersions => return (REGISTRY_NS, "get_dataVersions"),
        };
        (UDDI_NS, local)
    }
}

impl ServiceInfo {
    pub fn from_element(e: &Element) -> Option<ServiceInfo> {
        Some(ServiceInfo {
            key: e.attribute_local("serviceKey")?.to_owned(),
            name: e.child_text(UDDI_NS, "name").unwrap_or_default(),
            business_key: e.attribute_local("businessKey").unwrap_or("").to_owned(),
        })
    }
}

impl From<BusinessService> for ServiceInfo {
    fn from(service: BusinessService) -> Self {
        ServiceInfo {
            key: service.key,
            name: service.name,
            business_key: service.business_key,
        }
    }
}

impl DataVersions {
    fn at(epoch: u64) -> Self {
        let versions = Vec::new();
        DataVersions { epoch, versions }
    }

    /// Record `version` for shard `id`; `None` past 65 536 shards: the
    /// ids come off the wire and index a vector this grows.
    fn place(&mut self, id: usize, version: u64) -> Option<()> {
        if id >= 1 << 16 {
            return None;
        }
        if self.versions.len() <= id {
            self.versions.resize(id + 1, 0);
        }
        self.versions[id] = version;
        Some(())
    }

    pub fn from_element(e: &Element) -> Option<DataVersions> {
        let epoch = e.attribute_local("epoch")?.parse().ok()?;
        let mut versions = DataVersions::at(epoch);
        for shard in e.find_all(REGISTRY_NS, "shard") {
            let id = shard.attribute_local("id")?.parse().ok()?;
            versions.place(id, shard.attribute_local("version")?.parse().ok()?)?;
        }
        Some(versions)
    }
}

impl UddiResponse {
    /// The tree decoder: a document of the vocabulary decoded leniently,
    /// as the registry always has (an entry that does not decode is passed
    /// over), anything else as its tree; `Err` for an empty body.
    pub fn from_envelope(envelope: Envelope) -> Result<Self, String> {
        let payload = match envelope.into_body() {
            Body::Payload(payload) => payload,
            Body::Fault(fault) => return Ok(UddiResponse::Fault(fault)),
            Body::Empty => return Err("registry response body is empty".to_owned()),
        };
        fn all<T>(e: &Element, local: &str, decode: fn(&Element) -> Option<T>) -> Vec<T> {
            e.find_all(UDDI_NS, local).filter_map(decode).collect()
        }
        let business = |info: &Element| {
            let key = info.attribute_local("businessKey")?.to_owned();
            Some((key, info.child_text(UDDI_NS, "name")?))
        };
        let name = payload.name();
        let decoded = match (name.namespace(), name.local_name()) {
            (UDDI_NS, "serviceList") => (payload.find(UDDI_NS, "serviceInfos")).map(|infos| {
                UddiResponse::ServiceList(all(infos, "serviceInfo", ServiceInfo::from_element))
            }),
            (UDDI_NS, "serviceDetail") => Some(UddiResponse::ServiceDetail(all(
                &payload,
                "businessService",
                BusinessService::from_element,
            ))),
            (UDDI_NS, "tModelDetail") => Some(UddiResponse::TModelDetail(all(
                &payload,
                "tModel",
                TModel::from_element,
            ))),
            (UDDI_NS, "businessDetail") => Some(UddiResponse::BusinessDetail(all(
                &payload,
                "businessEntity",
                BusinessEntity::from_element,
            ))),
            (UDDI_NS, "businessList") => (payload.find(UDDI_NS, "businessInfos"))
                .map(|infos| UddiResponse::BusinessList(all(infos, "businessInfo", business))),
            (UDDI_NS, "dispositionReport") => (payload.attribute_local("deleted"))
                .and_then(|deleted| deleted.parse().ok())
                .map(|deleted| UddiResponse::Disposition { deleted }),
            (REGISTRY_NS, "dataVersions") => {
                DataVersions::from_element(&payload).map(UddiResponse::DataVersions)
            }
            _ => None,
        };
        Ok(decoded.unwrap_or(UddiResponse::Other(payload)))
    }
}

// --- writing -------------------------------------------------------------------

/// Append `request`'s envelope to `out`: the bytes the tree writer makes
/// of the same document.
pub fn write_request(request: &UddiRequest<'_>, out: &mut Vec<u8>) {
    let (ns, local) = request.op.name();
    let (mut rows, mut epoch) = ([0; 20], [0; 20]);
    let mut attributes = [("", "", ""); 2];
    let mut count = 0;
    if let UddiOp::FindService(query) | UddiOp::FindServiceDetail(query) = &request.op {
        if query.max_rows > 0 {
            attributes[count] = ("", "maxRows", decimal(query.max_rows as u64, &mut rows));
            count += 1;
        }
    }
    if let Some(stamp) = request.map_epoch {
        attributes[count] = ("", "mapEpoch", decimal(stamp, &mut epoch));
        count += 1;
    }
    let headers = MessageHeaders::default();
    write_envelope(out, &[], &headers, |out| {
        out.element_with(ns, local, &attributes[..count], |out| match &request.op {
            UddiOp::FindService(query) | UddiOp::FindServiceDetail(query) => {
                if let Some(pattern) = &query.name_pattern {
                    text_element(out, "name", pattern);
                }
                write_categories(out, &query.categories);
            }
            UddiOp::GetServiceDetail(keys) | UddiOp::DeleteService(keys) => {
                keys.iter().for_each(|k| text_element(out, "serviceKey", k));
            }
            UddiOp::GetTModelDetail(keys) => {
                keys.iter().for_each(|k| text_element(out, "tModelKey", k));
            }
            UddiOp::SaveService { tmodels, services } => {
                tmodels.iter().for_each(|t| write_tmodel(out, t));
                services.iter().for_each(|s| write_service(out, s));
            }
            UddiOp::SaveTModel(tmodels) => tmodels.iter().for_each(|t| write_tmodel(out, t)),
            UddiOp::SaveBusiness(entities) => entities.iter().for_each(|e| write_entity(out, e)),
            UddiOp::FindBusiness(pattern) => text_element(out, "name", pattern),
            UddiOp::GetShardMap | UddiOp::GetDataVersions => {}
        });
    });
}

/// Append `response`'s envelope to `out`: the bytes the tree writer makes
/// of the same document.
pub fn write_response(response: &UddiResponse, out: &mut Vec<u8>) {
    let headers = MessageHeaders::default();
    write_envelope(out, &[], &headers, |out| match response {
        UddiResponse::ServiceList(infos) => out.element(UDDI_NS, "serviceList", |out| {
            out.element(UDDI_NS, "serviceInfos", |out| {
                for info in infos {
                    let keys = [
                        ("", "serviceKey", &*info.key),
                        ("", "businessKey", &*info.business_key),
                    ];
                    out.element_with(UDDI_NS, "serviceInfo", &keys, |out| {
                        text_element(out, "name", &info.name);
                    });
                }
            });
        }),
        UddiResponse::ServiceDetail(services) => out.element(UDDI_NS, "serviceDetail", |out| {
            services.iter().for_each(|s| write_service(out, s));
        }),
        UddiResponse::TModelDetail(tmodels) => out.element(UDDI_NS, "tModelDetail", |out| {
            tmodels.iter().for_each(|t| write_tmodel(out, t));
        }),
        UddiResponse::BusinessDetail(entities) => out.element(UDDI_NS, "businessDetail", |out| {
            entities.iter().for_each(|e| write_entity(out, e));
        }),
        UddiResponse::BusinessList(found) => out.element(UDDI_NS, "businessList", |out| {
            out.element(UDDI_NS, "businessInfos", |out| {
                for (key, name) in found {
                    let key = [("", "businessKey", key.as_str())];
                    out.element_with(UDDI_NS, "businessInfo", &key, |out| {
                        text_element(out, "name", name);
                    });
                }
            });
        }),
        UddiResponse::Disposition { deleted } => {
            let mut digits = [0; 20];
            let deleted = [("", "deleted", decimal(*deleted as u64, &mut digits))];
            out.element_with(UDDI_NS, "dispositionReport", &deleted, |_| {});
        }
        UddiResponse::DataVersions(versions) => {
            let mut digits = [0; 20];
            let epoch = [("", "epoch", decimal(versions.epoch, &mut digits))];
            out.element_with(REGISTRY_NS, "dataVersions", &epoch, |out| {
                for (id, version) in versions.versions.iter().enumerate() {
                    let (mut id_digits, mut version_digits) = ([0; 20], [0; 20]);
                    let shard = [
                        ("", "id", decimal(id as u64, &mut id_digits)),
                        ("", "version", decimal(*version, &mut version_digits)),
                    ];
                    out.element_with(REGISTRY_NS, "shard", &shard, |_| {});
                }
            });
        }
        UddiResponse::Other(payload) => out.tree(payload),
        UddiResponse::Fault(fault) => out.tree(&fault.to_element()),
    });
}

/// `n` in decimal, formatted into `digits` — no allocation.
fn decimal(n: u64, digits: &mut [u8; 20]) -> &str {
    let mut rest = &mut digits[..];
    write!(rest, "{n}").expect("twenty digits hold any u64");
    let len = 20 - rest.len();
    std::str::from_utf8(&digits[..len]).expect("ASCII digits")
}

fn text_element(out: &mut StreamWriter<'_>, local: &str, text: &str) {
    out.element(UDDI_NS, local, |out| out.text(text));
}

fn write_service(out: &mut StreamWriter<'_>, service: &BusinessService) {
    let mut digits = [0; 20];
    let lease = service.lease_ttl_ms.map(|ttl| decimal(ttl, &mut digits));
    let attributes = [
        ("", "serviceKey", service.key.as_str()),
        ("", "businessKey", service.business_key.as_str()),
        ("", "leaseTtlMs", lease.unwrap_or_default()),
    ];
    let count = if lease.is_some() { 3 } else { 2 };
    out.element_with(UDDI_NS, "businessService", &attributes[..count], |out| {
        text_element(out, "name", &service.name);
        if let Some(description) = &service.description {
            text_element(out, "description", description);
        }
        if !service.bindings.is_empty() {
            out.element(UDDI_NS, "bindingTemplates", |out| {
                service.bindings.iter().for_each(|b| write_binding(out, b));
            });
        }
        write_categories(out, &service.categories);
    });
}

fn write_binding(out: &mut StreamWriter<'_>, binding: &BindingTemplate) {
    let key = [("", "bindingKey", binding.key.as_str())];
    out.element_with(UDDI_NS, "bindingTemplate", &key, |out| {
        let url_type = [("", "URLType", url_type(&binding.access_point))];
        out.element_with(UDDI_NS, "accessPoint", &url_type, |out| {
            out.text(&binding.access_point);
        });
        if !binding.tmodel_keys.is_empty() {
            out.element(UDDI_NS, "tModelInstanceDetails", |out| {
                for key in &binding.tmodel_keys {
                    let key = [("", "tModelKey", key.as_str())];
                    out.element_with(UDDI_NS, "tModelInstanceInfo", &key, |_| {});
                }
            });
        }
    });
}

fn write_categories(out: &mut StreamWriter<'_>, categories: &[KeyedReference]) {
    if categories.is_empty() {
        return;
    }
    out.element(UDDI_NS, "categoryBag", |out| {
        for c in categories {
            let attributes = [
                ("", "tModelKey", c.tmodel_key.as_str()),
                ("", "keyName", c.key_name.as_str()),
                ("", "keyValue", c.key_value.as_str()),
            ];
            out.element_with(UDDI_NS, "keyedReference", &attributes, |_| {});
        }
    });
}

fn write_tmodel(out: &mut StreamWriter<'_>, tmodel: &TModel) {
    let key = [("", "tModelKey", tmodel.key.as_str())];
    out.element_with(UDDI_NS, "tModel", &key, |out| {
        text_element(out, "name", &tmodel.name);
        if let Some(url) = &tmodel.overview_url {
            out.element(UDDI_NS, "overviewDoc", |out| {
                text_element(out, "overviewURL", url);
            });
        }
    });
}

fn write_entity(out: &mut StreamWriter<'_>, entity: &BusinessEntity) {
    let key = [("", "businessKey", entity.key.as_str())];
    out.element_with(UDDI_NS, "businessEntity", &key, |out| {
        text_element(out, "name", &entity.name);
        if let Some(description) = &entity.description {
            text_element(out, "description", description);
        }
    });
}

// --- reading -------------------------------------------------------------------

/// What a registry makes of request bytes: the request, the fault it
/// answers it with, or `None` for a body that is not a SOAP envelope.
pub fn read_request(xml: &str) -> Option<Result<UddiRequest<'static>, Fault>> {
    if let Some(request) = read_request_typed(xml) {
        return Some(Ok(request));
    }
    let envelope = Envelope::from_xml(xml).ok()?;
    let payload = envelope.payload();
    let payload = payload.ok_or_else(|| Fault::sender("UDDI request carries no body"));
    Some(payload.and_then(UddiRequest::from_payload))
}

/// What a client makes of response bytes; `Err` for a body that is not
/// a SOAP envelope or answers nothing.
pub fn read_response(xml: &str) -> Result<UddiResponse, String> {
    match read_response_typed(xml) {
        Some(response) => Ok(response),
        None => UddiResponse::from_envelope(Envelope::from_xml(xml).map_err(|e| e.to_string())?),
    }
}

/// The typed half of [`read_request`]: `None` for whatever it leaves to
/// the tree decoder (module doc).
pub fn read_request_typed(xml: &str) -> Option<UddiRequest<'static>> {
    read_body(xml, read_request_payload)
}

/// The typed half of [`read_response`].
pub fn read_response_typed(xml: &str) -> Option<UddiResponse> {
    read_body(xml, read_response_payload)
}

/// Read `xml` as an envelope whose body is one element, read by
/// `payload` with the cursor on its start tag, through its end tag.
fn read_body<T>(xml: &str, payload: fn(&mut PullReader<'_>) -> Option<T>) -> Option<T> {
    let (_, value) = read_envelope(xml, &mut |_| {}, |r| {
        if next_tag(r)? != Pull::Start {
            return None;
        }
        let value = payload(r)?;
        (next_tag(r)? == Pull::End).then_some(value)
    })?;
    Some(value)
}

fn read_request_payload(r: &mut PullReader<'_>) -> Option<UddiRequest<'static>> {
    let [epoch, rows] = attributes(r, ["mapEpoch", "maxRows"])?;
    let map_epoch = number(epoch)?;
    let max_rows = number(rows)?;
    let local = r.local_name();
    let uddi = r.is(UDDI_NS, local);
    if max_rows.is_some() && !(uddi && matches!(local, FIND_SERVICE | FIND_SERVICE_DETAIL)) {
        return None;
    }
    fn keys(r: &mut PullReader<'_>, local: &str) -> Option<Cow<'static, [String]>> {
        read_all(r, local, text).map(Cow::Owned)
    }
    let op = match (uddi, r.is(REGISTRY_NS, local), local) {
        (true, _, FIND_SERVICE) => UddiOp::FindService(Cow::Owned(read_query(r, max_rows)?)),
        (true, _, FIND_SERVICE_DETAIL) => {
            UddiOp::FindServiceDetail(Cow::Owned(read_query(r, max_rows)?))
        }
        (true, _, "get_serviceDetail") => UddiOp::GetServiceDetail(keys(r, "serviceKey")?),
        (true, _, "delete_service") => UddiOp::DeleteService(keys(r, "serviceKey")?),
        (true, _, "get_tModelDetail") => UddiOp::GetTModelDetail(keys(r, "tModelKey")?),
        (true, _, "save_service") => {
            let (mut tmodels, mut services) = (Vec::new(), Vec::new());
            children(r, |r| {
                match child(r, UDDI_NS) {
                    "tModel" => tmodels.push(read_tmodel(r)?),
                    "businessService" => services.push(read_service(r)?),
                    _ => return None,
                }
                Some(())
            })?;
            let (tmodels, services) = (Cow::Owned(tmodels), Cow::Owned(services));
            UddiOp::SaveService { tmodels, services }
        }
        (true, _, "save_tModel") => {
            UddiOp::SaveTModel(Cow::Owned(read_all(r, "tModel", read_tmodel)?))
        }
        (true, _, "save_business") => {
            UddiOp::SaveBusiness(Cow::Owned(read_all(r, "businessEntity", read_entity)?))
        }
        (true, _, "find_business") => {
            let (pattern, None) = read_naming(r)? else {
                return None;
            };
            let pattern = pattern.unwrap_or_else(|| "%".to_owned());
            UddiOp::FindBusiness(Cow::Owned(pattern))
        }
        (_, true, "get_shardMap") => empty(r).map(|()| UddiOp::GetShardMap)?,
        (_, true, "get_dataVersions") => empty(r).map(|()| UddiOp::GetDataVersions)?,
        _ => return None,
    };
    Some(UddiRequest { op, map_epoch })
}

fn read_response_payload(r: &mut PullReader<'_>) -> Option<UddiResponse> {
    let local = r.local_name();
    if r.is(REGISTRY_NS, local) && local == "dataVersions" {
        return read_data_versions(r).map(UddiResponse::DataVersions);
    }
    if !r.is(UDDI_NS, local) {
        return None;
    }
    if local == "dispositionReport" {
        let [deleted] = attributes(r, ["deleted"])?;
        let deleted = deleted?.parse().ok()?;
        return empty(r).map(|()| UddiResponse::Disposition { deleted });
    }
    plain(r)?;
    Some(match local {
        "serviceDetail" => {
            UddiResponse::ServiceDetail(read_all(r, "businessService", read_service)?)
        }
        "tModelDetail" => UddiResponse::TModelDetail(read_all(r, "tModel", read_tmodel)?),
        "businessDetail" => {
            UddiResponse::BusinessDetail(read_all(r, "businessEntity", read_entity)?)
        }
        "serviceList" => {
            UddiResponse::ServiceList(read_list(r, "serviceInfos", "serviceInfo", read_info)?)
        }
        "businessList" => UddiResponse::BusinessList(read_list(
            r,
            "businessInfos",
            "businessInfo",
            read_business,
        )?),
        _ => return None,
    })
}

/// The values of the start tag's attributes named `names` (in no
/// namespace), by position; `None` if it has any other attribute.
fn attributes<'a, const N: usize>(
    r: &PullReader<'a>,
    names: [&str; N],
) -> Option<[Option<Cow<'a, str>>; N]> {
    let mut values = [const { None }; N];
    let mut foreign = false;
    r.attributes(
        |ns, local, value| match names.iter().position(|&n| n == local) {
            Some(at) if ns.is_empty() => values[at] = Some(value),
            _ => foreign = true,
        },
    );
    (!foreign).then_some(values)
}

/// An optional numeric attribute: `Some(None)` when absent, `None` when
/// present and not a number.
fn number<T: std::str::FromStr>(value: Option<Cow<'_, str>>) -> Option<Option<T>> {
    value.map_or(Some(None), |value| value.parse().ok().map(Some))
}

/// `Some` if the start tag under the cursor has no attributes.
fn plain(r: &PullReader<'_>) -> Option<()> {
    (r.attribute_count() == 0).then_some(())
}

/// The local name of the start tag under the cursor if it is in `ns`,
/// `""` — no name of the vocabulary — if it is not.
fn child<'a>(r: &PullReader<'a>, ns: &str) -> &'a str {
    Some(r.local_name())
        .filter(|&local| r.is(ns, local))
        .unwrap_or("")
}

/// Pass `each` every child element of the element whose start tag the
/// cursor rests on, the cursor on the child's start tag; `each` reads
/// through the child's end tag. Ends after the element's own end tag.
fn children<'a>(
    r: &mut PullReader<'a>,
    mut each: impl FnMut(&mut PullReader<'a>) -> Option<()>,
) -> Option<()> {
    while next_tag(r)? == Pull::Start {
        each(r)?;
    }
    Some(())
}

/// Children that are all `{UDDI_NS}local`, each read by `read`.
fn read_all<'a, T>(
    r: &mut PullReader<'a>,
    local: &str,
    mut read: impl FnMut(&mut PullReader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let mut all = Vec::new();
    children(r, |r| {
        if child(r, UDDI_NS) != local {
            return None;
        }
        all.push(read(r)?);
        Some(())
    })?;
    Some(all)
}

/// The items of a list document: its one `{wrapper}` child's children,
/// each an `{item}` read by `read`.
fn read_list<T>(
    r: &mut PullReader<'_>,
    wrapper: &str,
    item: &str,
    read: fn(&mut PullReader<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    let mut items = None;
    children(r, |r| {
        if child(r, UDDI_NS) != wrapper {
            return None;
        }
        once(&mut items, || {
            plain(r).and_then(|()| read_all(r, item, read))
        })
    })?;
    items
}

/// Fill `slot` from `read`, unless it is full: the tree decoders read
/// the first of two children where one is expected, the typed ones
/// decline.
fn once<T>(slot: &mut Option<T>, read: impl FnOnce() -> Option<T>) -> Option<()> {
    *slot = Some(slot.is_none().then(read)??);
    Some(())
}

/// The end tag of an element that has no content.
fn empty(r: &mut PullReader<'_>) -> Option<()> {
    (next_tag(r)? == Pull::End).then_some(())
}

/// The character data of an attribute-less element.
fn text(r: &mut PullReader<'_>) -> Option<String> {
    plain(r)?;
    read_text(r).map(Cow::into_owned)
}

fn read_query(r: &mut PullReader<'_>, max_rows: Option<usize>) -> Option<ServiceQuery> {
    let (mut name, mut categories) = (None, None);
    children(r, |r| match child(r, UDDI_NS) {
        "name" => once(&mut name, || text(r)),
        "categoryBag" => once(&mut categories, || read_categories(r)),
        _ => None,
    })?;
    Some(ServiceQuery {
        name_pattern: name,
        categories: categories.unwrap_or_default(),
        max_rows: max_rows.unwrap_or(0),
    })
}

fn read_categories(r: &mut PullReader<'_>) -> Option<Vec<KeyedReference>> {
    plain(r)?;
    read_all(r, "keyedReference", |r| {
        let [tmodel, name, value] = attributes(r, ["tModelKey", "keyName", "keyValue"])?;
        empty(r)?;
        Some(KeyedReference::new(
            tmodel?,
            name.unwrap_or_default(),
            value?,
        ))
    })
}

fn read_service(r: &mut PullReader<'_>) -> Option<BusinessService> {
    let [key, business, lease] = attributes(r, ["serviceKey", "businessKey", "leaseTtlMs"])?;
    let mut service = BusinessService::new(key?, business.unwrap_or_default(), "");
    service.lease_ttl_ms = number(lease)?;
    let (mut name, mut bindings, mut categories) = (None, None, None);
    children(r, |r| match child(r, UDDI_NS) {
        "name" => once(&mut name, || text(r)),
        "description" => once(&mut service.description, || text(r)),
        "bindingTemplates" => once(&mut bindings, || {
            plain(r)?;
            read_all(r, "bindingTemplate", read_binding)
        }),
        "categoryBag" => once(&mut categories, || read_categories(r)),
        _ => None,
    })?;
    service.name = name?;
    service.bindings = bindings.unwrap_or_default();
    service.categories = categories.unwrap_or_default();
    Some(service)
}

fn read_binding(r: &mut PullReader<'_>) -> Option<BindingTemplate> {
    let [key] = attributes(r, ["bindingKey"])?;
    let (mut access_point, mut tmodel_keys) = (None, None);
    children(r, |r| match child(r, UDDI_NS) {
        "accessPoint" => once(&mut access_point, || {
            attributes(r, ["URLType"])?;
            read_text(r).map(Cow::into_owned)
        }),
        "tModelInstanceDetails" => once(&mut tmodel_keys, || {
            plain(r)?;
            read_all(r, "tModelInstanceInfo", |r| {
                let [key] = attributes(r, ["tModelKey"])?;
                empty(r)?;
                key.map(Cow::into_owned)
            })
        }),
        _ => None,
    })?;
    Some(BindingTemplate {
        key: key?.into_owned(),
        access_point: access_point?,
        tmodel_keys: tmodel_keys.unwrap_or_default(),
    })
}

fn read_tmodel(r: &mut PullReader<'_>) -> Option<TModel> {
    let [key] = attributes(r, ["tModelKey"])?;
    let (mut name, mut overview) = (None, None);
    children(r, |r| match child(r, UDDI_NS) {
        "name" => once(&mut name, || text(r)),
        "overviewDoc" => once(&mut overview, || {
            plain(r)?;
            let mut url = None;
            children(r, |r| match child(r, UDDI_NS) {
                "overviewURL" => once(&mut url, || text(r)),
                _ => None,
            })?;
            Some(url)
        }),
        _ => None,
    })?;
    Some(TModel {
        key: key?.into_owned(),
        name: name?,
        overview_url: overview.flatten(),
    })
}

fn read_entity(r: &mut PullReader<'_>) -> Option<BusinessEntity> {
    let [key] = attributes(r, ["businessKey"])?;
    let (name, description) = read_naming(r)?;
    Some(BusinessEntity {
        key: key?.into_owned(),
        name: name?,
        description,
    })
}

fn read_info(r: &mut PullReader<'_>) -> Option<ServiceInfo> {
    let [key, business] = attributes(r, ["serviceKey", "businessKey"])?;
    let (name, None) = read_naming(r)? else {
        return None;
    };
    Some(ServiceInfo {
        key: key?.into_owned(),
        name: name.unwrap_or_default(),
        business_key: business.unwrap_or_default().into_owned(),
    })
}

fn read_business(r: &mut PullReader<'_>) -> Option<(String, String)> {
    let [key] = attributes(r, ["businessKey"])?;
    let (Some(name), None) = read_naming(r)? else {
        return None;
    };
    Some((key?.into_owned(), name))
}

/// The children of an element that holds a `name` and a `description`,
/// each at most once.
fn read_naming(r: &mut PullReader<'_>) -> Option<(Option<String>, Option<String>)> {
    let (mut name, mut description) = (None, None);
    children(r, |r| match child(r, UDDI_NS) {
        "name" => once(&mut name, || text(r)),
        "description" => once(&mut description, || text(r)),
        _ => None,
    })?;
    Some((name, description))
}

fn read_data_versions(r: &mut PullReader<'_>) -> Option<DataVersions> {
    let [epoch] = attributes(r, ["epoch"])?;
    let mut versions = DataVersions::at(epoch?.parse().ok()?);
    children(r, |r| {
        if child(r, REGISTRY_NS) != "shard" {
            return None;
        }
        let [id, version] = attributes(r, ["id", "version"])?;
        empty(r)?;
        versions.place(id?.parse().ok()?, version?.parse().ok()?)
    })?;
    Some(versions)
}
