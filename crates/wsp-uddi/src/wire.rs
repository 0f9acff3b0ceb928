//! The registry vocabulary as values: every request this workspace
//! sends a registry ([`UddiRequest`]) and every answer ([`UddiResponse`]).
//!
//! Clients and registries meet on these values. In process a request is
//! handed over as it is; at the HTTP edges [`write_request`] /
//! [`write_response`] stream a value into the bytes the tree writer
//! makes of the same document, and [`read_request`] / [`read_response`]
//! read it back off the pull reader.
//!
//! The readers read what the writers write, in any layout and with
//! attributes and children in any order, a fault and the shard map (as
//! a tree) among the answers. Everything else is refused: an unknown
//! operation and an empty body with the registry's faults for them, and
//! an attribute or child the vocabulary does not define, a second child
//! where one is read, a required one missing, a number that does not
//! parse or stray text by the shape [`Rule`] it breaks (DESIGN.md §11).

use crate::model::{
    url_type, BindingTemplate, BusinessEntity, BusinessService, KeyedReference, TModel, UDDI_NS,
};
use crate::query::{ServiceQuery, FIND_SERVICE, FIND_SERVICE_DETAIL};
use std::borrow::Cow;
use std::io::Write;
use wsp_soap::typed::{attributes, name_of, next_tag, number, only, plain, read_envelope};
use wsp_soap::typed::{read_parts, read_text, required, write_envelope};
use wsp_soap::typed::{Payload, Rule};
use wsp_soap::{Fault, MessageHeaders, SoapError};
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
    /// The shard map (`{urn:wsp:registry}shardMap`), as its tree.
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

impl From<BusinessService> for ServiceInfo {
    fn from(service: BusinessService) -> Self {
        ServiceInfo {
            key: service.key,
            name: service.name,
            business_key: service.business_key,
        }
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

/// What a registry makes of request bytes: the request, or the fault it
/// answers it with; `None` for a body that is not a SOAP envelope.
pub fn read_request(xml: &str) -> Option<Result<UddiRequest<'static>, Fault>> {
    let read = read_envelope(xml, &mut |_| {}, |payload| match payload {
        Payload::Element(r) => read_request_payload(r),
        _ => Err(Fault::sender("UDDI request carries no body").into()),
    });
    Some(read.ok()?.1)
}

/// What a client makes of response bytes: the answer, a fault among
/// them, or why there is none.
pub fn read_response(xml: &str) -> Result<UddiResponse, String> {
    let read = read_envelope(xml, &mut |_| {}, |payload| match payload {
        Payload::Element(r) => read_response_payload(r),
        Payload::Fault(fault) => Ok(UddiResponse::Fault(fault)),
        Payload::Empty => Err(Fault::sender("registry response body is empty").into()),
    });
    let (_, read) = read.map_err(|e| e.to_string())?;
    read.map_err(|refused| refused.reason)
}

fn read_request_payload(r: &mut PullReader<'_>) -> Result<UddiRequest<'static>, SoapError> {
    let local = r.local_name();
    let (uddi, registry) = (r.is(UDDI_NS, local), r.is(REGISTRY_NS, local));
    let [epoch, rows] = attributes(r, ["mapEpoch", "maxRows"])?;
    if rows.is_some() && !(uddi && matches!(local, FIND_SERVICE | FIND_SERVICE_DETAIL)) {
        return Err(Rule::UnknownAttribute.refuse(format_args!("maxRows on {local}")));
    }
    let map_epoch = epoch.map(|v| number(v, "mapEpoch")).transpose()?;
    let max_rows = rows.map(|v| number(v, "maxRows")).transpose()?;
    let keys = |r, local| read_all(r, local, text).map(Cow::Owned);
    let op = match (uddi, registry, local) {
        (true, _, FIND_SERVICE) => UddiOp::FindService(Cow::Owned(read_query(r, max_rows)?)),
        (true, _, FIND_SERVICE_DETAIL) => {
            UddiOp::FindServiceDetail(Cow::Owned(read_query(r, max_rows)?))
        }
        (true, _, "get_serviceDetail") => UddiOp::GetServiceDetail(keys(r, "serviceKey")?),
        (true, _, "delete_service") => UddiOp::DeleteService(keys(r, "serviceKey")?),
        (true, _, "get_tModelDetail") => UddiOp::GetTModelDetail(keys(r, "tModelKey")?),
        (true, _, "save_service") => {
            let (mut tmodels, mut services) = (Vec::new(), Vec::new());
            while next_tag(r)? == Pull::Start {
                match child(r, UDDI_NS)? {
                    "tModel" => tmodels.push(read_tmodel(r)?),
                    "businessService" => services.push(read_service(r)?),
                    other => return Err(Rule::UnknownElement.refuse(other)),
                }
            }
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
            let mut pattern = "%".to_owned();
            read_parts(r, UDDI_NS, &["name"], |r, _| {
                pattern = text(r)?;
                Ok(())
            })?;
            UddiOp::FindBusiness(Cow::Owned(pattern))
        }
        (_, true, "get_shardMap") => empty(r).map(|()| UddiOp::GetShardMap)?,
        (_, true, "get_dataVersions") => empty(r).map(|()| UddiOp::GetDataVersions)?,
        _ => return Err(Fault::sender(format!("unknown UDDI operation {local:?}")).into()),
    };
    Ok(UddiRequest { op, map_epoch })
}

fn read_response_payload(r: &mut PullReader<'_>) -> Result<UddiResponse, SoapError> {
    let local = r.local_name();
    if r.is(REGISTRY_NS, local) {
        return match local {
            "dataVersions" => read_data_versions(r).map(UddiResponse::DataVersions),
            "shardMap" => Ok(UddiResponse::Other(r.read_subtree()?)),
            _ => Err(Rule::UnknownElement.refuse(name_of(r))),
        };
    }
    if !r.is(UDDI_NS, local) {
        return Err(Rule::UnknownElement.refuse(name_of(r)));
    }
    if local == "dispositionReport" {
        let [deleted] = attributes(r, ["deleted"])?;
        let deleted = number(required(deleted, "deleted")?, "deleted")?;
        return empty(r).map(|()| UddiResponse::Disposition { deleted });
    }
    plain(r)?;
    Ok(match local {
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
        _ => return Err(Rule::UnknownElement.refuse(name_of(r))),
    })
}

/// The local name of the start tag under the cursor, which must be in
/// `ns`.
fn child<'a>(r: &PullReader<'a>, ns: &str) -> Result<&'a str, SoapError> {
    let local = r.local_name();
    match r.is(ns, local) {
        true => Ok(local),
        false => Err(Rule::UnknownElement.refuse(name_of(r))),
    }
}

/// Children that are all `{UDDI_NS}local`, each read by `read`, through
/// the parent's end tag.
fn read_all<'a, T>(
    r: &mut PullReader<'a>,
    local: &str,
    mut read: impl FnMut(&mut PullReader<'a>) -> Result<T, SoapError>,
) -> Result<Vec<T>, SoapError> {
    let mut all = Vec::new();
    while next_tag(r)? == Pull::Start {
        if child(r, UDDI_NS)? != local {
            return Err(Rule::UnknownElement.refuse(name_of(r)));
        }
        all.push(read(r)?);
    }
    Ok(all)
}

/// The items of a list document: its one `{wrapper}` child's children,
/// each an `{item}` read by `read`.
fn read_list<T>(
    r: &mut PullReader<'_>,
    wrapper: &str,
    item: &str,
    read: fn(&mut PullReader<'_>) -> Result<T, SoapError>,
) -> Result<Vec<T>, SoapError> {
    only(r, UDDI_NS, wrapper, |r| {
        plain(r)?;
        read_all(r, item, read)
    })
}

/// The end tag of an element that has no content.
fn empty(r: &mut PullReader<'_>) -> Result<(), SoapError> {
    match next_tag(r)? {
        Pull::Start => Err(Rule::UnknownElement.refuse(name_of(r))),
        _ => Ok(()),
    }
}

/// The character data of an attribute-less element.
fn text(r: &mut PullReader<'_>) -> Result<String, SoapError> {
    plain(r)?;
    read_text(r).map(Cow::into_owned)
}

fn read_query(r: &mut PullReader<'_>, max_rows: Option<usize>) -> Result<ServiceQuery, SoapError> {
    let mut query = ServiceQuery::all().with_max_rows(max_rows.unwrap_or(0));
    read_parts(r, UDDI_NS, &["name", "categoryBag"], |r, part| {
        match part {
            0 => query.name_pattern = Some(text(r)?),
            _ => query.categories = read_categories(r)?,
        }
        Ok(())
    })?;
    Ok(query)
}

fn read_categories(r: &mut PullReader<'_>) -> Result<Vec<KeyedReference>, SoapError> {
    plain(r)?;
    read_all(r, "keyedReference", |r| {
        let [tmodel, name, value] = attributes(r, ["tModelKey", "keyName", "keyValue"])?;
        empty(r)?;
        Ok(KeyedReference::new(
            required(tmodel, "tModelKey")?,
            name.unwrap_or_default(),
            required(value, "keyValue")?,
        ))
    })
}

fn read_service(r: &mut PullReader<'_>) -> Result<BusinessService, SoapError> {
    let [key, business, lease] = attributes(r, ["serviceKey", "businessKey", "leaseTtlMs"])?;
    let key = required(key, "serviceKey")?;
    let mut service = BusinessService::new(key, business.unwrap_or_default(), "");
    service.lease_ttl_ms = lease.map(|v| number(v, "leaseTtlMs")).transpose()?;
    let mut name = None;
    let parts = ["name", "description", "bindingTemplates", "categoryBag"];
    read_parts(r, UDDI_NS, &parts, |r, part| {
        match part {
            0 => name = Some(text(r)?),
            1 => service.description = Some(text(r)?),
            2 => {
                plain(r)?;
                service.bindings = read_all(r, "bindingTemplate", read_binding)?;
            }
            _ => service.categories = read_categories(r)?,
        }
        Ok(())
    })?;
    service.name = required(name, "name")?;
    Ok(service)
}

fn read_binding(r: &mut PullReader<'_>) -> Result<BindingTemplate, SoapError> {
    let [key] = attributes(r, ["bindingKey"])?;
    let mut binding = BindingTemplate::new(required(key, "bindingKey")?, "");
    let mut access_point = None;
    read_parts(
        r,
        UDDI_NS,
        &["accessPoint", "tModelInstanceDetails"],
        |r, part| {
            match part {
                // `URLType` is written from the access point; it reads as nothing.
                0 => {
                    attributes(r, ["URLType"])?;
                    access_point = Some(read_text(r)?.into_owned());
                }
                _ => {
                    plain(r)?;
                    binding.tmodel_keys = read_all(r, "tModelInstanceInfo", |r| {
                        let [key] = attributes(r, ["tModelKey"])?;
                        empty(r)?;
                        required(key, "tModelKey").map(Cow::into_owned)
                    })?;
                }
            }
            Ok(())
        },
    )?;
    binding.access_point = required(access_point, "accessPoint")?;
    Ok(binding)
}

fn read_tmodel(r: &mut PullReader<'_>) -> Result<TModel, SoapError> {
    let [key] = attributes(r, ["tModelKey"])?;
    let mut tmodel = TModel::new(required(key, "tModelKey")?, "");
    let mut name = None;
    read_parts(r, UDDI_NS, &["name", "overviewDoc"], |r, part| {
        match part {
            0 => name = Some(text(r)?),
            _ => {
                plain(r)?;
                tmodel.overview_url = Some(only(r, UDDI_NS, "overviewURL", text)?);
            }
        }
        Ok(())
    })?;
    tmodel.name = required(name, "name")?;
    Ok(tmodel)
}

fn read_entity(r: &mut PullReader<'_>) -> Result<BusinessEntity, SoapError> {
    let [key] = attributes(r, ["businessKey"])?;
    let mut entity = BusinessEntity::new(required(key, "businessKey")?, "");
    let mut name = None;
    read_parts(r, UDDI_NS, &["name", "description"], |r, part| {
        match part {
            0 => name = Some(text(r)?),
            _ => entity.description = Some(text(r)?),
        }
        Ok(())
    })?;
    entity.name = required(name, "name")?;
    Ok(entity)
}

fn read_info(r: &mut PullReader<'_>) -> Result<ServiceInfo, SoapError> {
    let [key, business] = attributes(r, ["serviceKey", "businessKey"])?;
    Ok(ServiceInfo {
        key: required(key, "serviceKey")?.into_owned(),
        business_key: business.unwrap_or_default().into_owned(),
        name: only(r, UDDI_NS, "name", text)?,
    })
}

fn read_business(r: &mut PullReader<'_>) -> Result<(String, String), SoapError> {
    let [key] = attributes(r, ["businessKey"])?;
    let key = required(key, "businessKey")?.into_owned();
    Ok((key, only(r, UDDI_NS, "name", text)?))
}

/// `dataVersions`: one `shard` per shard id from zero, in any order.
fn read_data_versions(r: &mut PullReader<'_>) -> Result<DataVersions, SoapError> {
    let [epoch] = attributes(r, ["epoch"])?;
    let epoch = number(required(epoch, "epoch")?, "epoch")?;
    let mut shards: Vec<(usize, u64)> = Vec::new();
    while next_tag(r)? == Pull::Start {
        if child(r, REGISTRY_NS)? != "shard" {
            return Err(Rule::UnknownElement.refuse(name_of(r)));
        }
        let [id, version] = attributes(r, ["id", "version"])?;
        let id = number(required(id, "id")?, "id")?;
        shards.push((id, number(required(version, "version")?, "version")?));
        empty(r)?;
    }
    shards.sort_unstable();
    for (at, &(id, _)) in shards.iter().enumerate() {
        match id.cmp(&at) {
            std::cmp::Ordering::Less => return Err(Rule::Repeated.refuse("shard id")),
            std::cmp::Ordering::Greater => return Err(Rule::Missing.refuse("shard id")),
            std::cmp::Ordering::Equal => {}
        }
    }
    let versions = shards.into_iter().map(|(_, version)| version).collect();
    Ok(DataVersions { epoch, versions })
}
