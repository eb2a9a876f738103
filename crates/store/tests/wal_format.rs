//! The on-disk WAL record format, pinned by a literal: a segment written by
//! hand — magic, `[len u32 LE][sha256(payload)][payload]`, and a JSON
//! `WalEntry` payload spelled out below — must recover to the object it
//! describes. A store written by an older build therefore keeps recovering
//! however the JSON codec is implemented, and the writer still produces the
//! same text for the object.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use vc_api::meta::Uid;
use vc_api::object::{Object, ResourceKind};
use vc_api::pod::{Container, Pod, PodConditionType, PodPhase};
use vc_api::quantity::resource_list;
use vc_api::sha256::sha256;
use vc_api::time::{RealClock, Timestamp};
use vc_store::{DurabilityConfig, FlushPolicy, Store, StoreConfig};

/// The object part of the record, as the JSON codec writes it: sorted keys,
/// every field present, escapes in an annotation value.
const OBJECT_JSON: &str = concat!(
    r#"{"Pod":{"meta":{"annotations":{"note":"a \"quoted\"\tvalue é"},"#,
    r#""creation_timestamp":1700000000000,"deletion_timestamp":null,"finalizers":[],"#,
    r#""generation":0,"labels":{"app":"web"},"name":"web-0","namespace":"tenant-a","#,
    r#""owner_references":[],"resource_version":3,"uid":"0000-pinned"},"#,
    r#""spec":{"affinity":{"pod_affinity":[],"pod_anti_affinity":[]},"config_map_names":[],"#,
    r#""containers":[{"command":[],"env":{},"image":"registry.local/app:1.4","limits":{},"#,
    r#""name":"app","ports":[{"container_port":8080,"protocol":"Tcp"}],"privileged":false,"#,
    r#""requests":{"cpu":250,"memory":67108864000}}],"host_network":false,"host_paths":[],"#,
    r#""host_pid":false,"init_containers":[],"node_name":"node-1","node_selector":{},"#,
    r#""runtime_class":"Runc","secret_names":[],"service_account_name":"","tolerations":[],"#,
    r#""volume_claim_names":[]},"status":{"conditions":[{"condition_type":"Ready","#,
    r#""last_transition":1700000000500,"reason":"Started","status":true}],"host_ip":"","#,
    r#""message":"","phase":"Running","pod_ip":"","started_at":1700000000400}}}"#,
);

fn expected_pod() -> Object {
    let mut pod = Pod::new("tenant-a", "web-0").with_container(
        Container::new("app", "registry.local/app:1.4")
            .with_requests(resource_list(&[("cpu", "250m"), ("memory", "64Mi")]))
            .with_port(8080),
    );
    pod.meta.labels.insert("app".into(), "web".into());
    pod.meta.annotations.insert("note".into(), "a \"quoted\"\tvalue é".into());
    pod.meta.uid = Uid::from_string("0000-pinned");
    pod.meta.resource_version = 3;
    pod.meta.creation_timestamp = Timestamp::from_millis(1_700_000_000_000);
    pod.spec.node_name = "node-1".into();
    pod.status.phase = PodPhase::Running;
    let ready_at = Timestamp::from_millis(1_700_000_000_500);
    pod.status.set_condition(PodConditionType::Ready, true, "Started", ready_at);
    pod.status.started_at = Some(Timestamp::from_millis(1_700_000_000_400));
    pod.into()
}

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vc-store-wal-format-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn literal_json_record_recovers() {
    let expected = expected_pod();
    assert_eq!(serde_json::to_string(&expected).unwrap(), OBJECT_JSON, "writer text moved");

    let payload = format!(r#"{{"object":{OBJECT_JSON},"op":"Insert","revision":3}}"#);
    let mut segment = b"VCWAL1\0\0".to_vec();
    segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    segment.extend_from_slice(&sha256(payload.as_bytes()));
    segment.extend_from_slice(payload.as_bytes());
    let dir = scratch_dir();
    std::fs::write(dir.join("wal-0000000001.log"), segment).unwrap();

    let durability = DurabilityConfig::new(&dir).with_flush(FlushPolicy::PerWrite);
    let (store, report) =
        Store::open_durable(StoreConfig::default(), durability, RealClock::shared()).unwrap();
    assert_eq!(report.wal_records_applied, 1);
    assert!(!report.torn_tail);
    assert_eq!(store.revision(), 3);
    let recovered = store.get(ResourceKind::Pod, "tenant-a/web-0").expect("recovered");
    assert_eq!(*recovered, expected);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
