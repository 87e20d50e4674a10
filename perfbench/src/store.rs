//! Building the store on real files and starting the server over it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use blsm::{
    AppendOperator, BLsmConfig, BLsmTree, Durability, MergeOperator, ShardedBLsm, ShardedConfig,
    ShardedReadView, ThreadedBLsm,
};
use blsm_server::{Server, ServerConfig};
use blsm_storage::{BufferPool, FileDevice, SharedDevice};

use crate::gen::{self, PRELOAD_VERSION};
use crate::probe::{TimedDevice, TraceSwitch};

/// Merge bytes per background quantum, as `blsm-server` runs it.
const QUANTUM: u64 = 1 << 20;

/// How one workload's store is laid out and configured.
#[derive(Debug, Clone)]
pub struct Layout {
    pub durability: Durability,
    pub mem_budget: usize,
    /// Buffer-pool pages per shard.
    pub pool_pages: usize,
    /// Shard `i + 1` starts at key id `bounds[i]`; empty for one shard.
    pub bounds: Vec<u64>,
}

impl Layout {
    pub fn shards(&self) -> usize {
        self.bounds.len() + 1
    }

    pub fn shard_of(&self, id: u64) -> usize {
        self.bounds.iter().take_while(|&&b| b <= id).count()
    }

    fn config(&self, durability: Durability) -> BLsmConfig {
        BLsmConfig {
            mem_budget: self.mem_budget,
            durability,
            ..BLsmConfig::default()
        }
    }
}

fn op() -> Arc<dyn MergeOperator> {
    Arc::new(AppendOperator)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn shard_dir(base: &Path, i: usize) -> PathBuf {
    base.join(format!("shard-{i:03}"))
}

fn file(path: &Path) -> Result<SharedDevice, String> {
    Ok(Arc::new(FileDevice::open(path).map_err(err)?))
}

/// Opens shard `i`'s tree directly on its files.
pub fn open_tree(
    base: &Path,
    i: usize,
    layout: &Layout,
    durability: Durability,
) -> Result<BLsmTree, String> {
    let dir = shard_dir(base, i);
    std::fs::create_dir_all(&dir).map_err(err)?;
    BLsmTree::open(
        file(&dir.join("data"))?,
        file(&dir.join("wal"))?,
        layout.pool_pages,
        layout.config(durability),
        op(),
    )
    .map_err(err)
}

/// Loads every id of `order`, in that order, on this thread through
/// `BLsmTree` (inline pacing, no merge thread), each into its shard, then
/// checkpoints every shard so the component layout is the same on
/// every run. Loading uses the default 8 MiB `C0` whatever the serving
/// budget: the checkpoint leaves `C0` empty either way.
pub fn load(base: &Path, layout: &Layout, order: &[u64]) -> Result<(), String> {
    let loading = Layout {
        mem_budget: BLsmConfig::default().mem_budget,
        ..layout.clone()
    };
    for shard in 0..layout.shards() {
        let tree = open_tree(base, shard, &loading, Durability::Buffered)?;
        for &id in order.iter().filter(|&&id| layout.shard_of(id) == shard) {
            tree.put(gen::key(id), gen::value(id, PRELOAD_VERSION))
                .map_err(err)?;
        }
        tree.checkpoint().map_err(err)?;
    }
    Ok(())
}

/// A running server over the loaded store, plus the handles the
/// benchmark measures it through.
pub struct Running {
    pub server: Server,
    pub addr: SocketAddr,
    pub view: ShardedReadView,
    pub pools: Vec<Arc<BufferPool>>,
    /// Data and WAL devices exactly as handed to the trees.
    pub data: Vec<SharedDevice>,
    pub wal: Vec<SharedDevice>,
    /// The timing wrappers (traced runs only).
    pub timed_data: Vec<Arc<TimedDevice>>,
    pub timed_wal: Vec<Arc<TimedDevice>>,
}

impl std::fmt::Debug for Running {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Running")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

#[derive(Default)]
struct Devices {
    data: Vec<SharedDevice>,
    wal: Vec<SharedDevice>,
    timed_data: Vec<Arc<TimedDevice>>,
    timed_wal: Vec<Arc<TimedDevice>>,
}

impl Devices {
    /// Opens shard `i`'s pair, wrapped in timing devices when tracing.
    fn open(
        &mut self,
        base: &Path,
        i: usize,
        trace: Option<&TraceSwitch>,
    ) -> Result<(SharedDevice, SharedDevice), String> {
        let dir = shard_dir(base, i);
        std::fs::create_dir_all(&dir).map_err(err)?;
        let (mut data, mut wal) = (file(&dir.join("data"))?, file(&dir.join("wal"))?);
        if let Some(on) = trace {
            let td = Arc::new(TimedDevice::new(data, on.clone()));
            let tw = Arc::new(TimedDevice::new(wal, on.clone()));
            self.timed_data.push(td.clone());
            self.timed_wal.push(tw.clone());
            data = td;
            wal = tw;
        }
        self.data.push(data.clone());
        self.wal.push(wal.clone());
        Ok((data, wal))
    }
}

/// Reopens the loaded store with the serving durability, starts a merge
/// thread per shard and the TCP server on an ephemeral local port.
pub fn serve(base: &Path, layout: &Layout, trace: Option<&TraceSwitch>) -> Result<Running, String> {
    let mut devs = Devices::default();
    let config = layout.config(layout.durability);
    let store = if layout.shards() == 1 {
        let (data, wal) = devs.open(base, 0, trace)?;
        let tree = BLsmTree::open(data, wal, layout.pool_pages, config, op()).map_err(err)?;
        ShardedBLsm::from_single(ThreadedBLsm::start(tree, QUANTUM).map_err(err)?)
    } else {
        let bounds = layout.bounds.iter().map(|&b| gen::key(b).into()).collect();
        let sharded = ShardedConfig {
            tree: config,
            pool_pages: layout.pool_pages,
            quantum: QUANTUM,
        };
        let store = ShardedBLsm::open_with_devices(
            file(&base.join("shards.manifest"))?,
            bounds,
            |i| {
                devs.open(base, i, trace)
                    .map_err(blsm_storage::StorageError::InvalidFormat)
            },
            &sharded,
            &op(),
        )
        .map_err(err)?;
        if let Some(d) = store.degraded_shards().first() {
            return Err(format!("shard {} degraded: {}", d.shard, d.error));
        }
        store
    };
    let mut pools = Vec::new();
    for i in 0..store.shard_count() {
        let db = store.shard_engine(i).map_err(err)?;
        pools.push(db.with_tree(|t| t.pool().clone()));
    }
    let view = store.read_view();
    let server =
        Server::start_sharded(store, "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
    Ok(Running {
        addr: server.local_addr(),
        server,
        view,
        pools,
        data: devs.data,
        wal: devs.wal,
        timed_data: devs.timed_data,
        timed_wal: devs.timed_wal,
    })
}
