"""Weighted DAG lowering of a netlist and critical (longest) path extraction.

Following the paper, every directed net ``u -> v`` is weighted with the insertion
loss of its *incident* (destination) vertex ``v``, optionally multiplied by a
per-instance loss multiplicity (e.g. the broadcast path through ``CW - 1`` crossings
stores ``(CW - 1) x`` the crossing loss on that edge).  The total insertion loss of a
path from a light source to a detector is then the source device's own loss plus the
sum of edge weights along the path, and the link-budget critical path is the longest
such weighted path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.devices.library import DeviceLibrary
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    # Imported where used instead, so commands that build no circuit DAG
    # (``repro list``, store-served runs) do not pay networkx's import time.
    import networkx as nx


@dataclass(frozen=True)
class CriticalPath:
    """The highest-insertion-loss source-to-sink path of a circuit DAG."""

    instances: Tuple[str, ...]
    insertion_loss_db: float

    def __len__(self) -> int:
        return len(self.instances)


class CircuitDAG:
    """Weighted DAG view of a :class:`~repro.netlist.netlist.Netlist`.

    ``loss_multipliers`` maps instance name -> multiplier applied to that instance's
    insertion loss on every edge pointing at it; this is how parametric broadcast /
    sharing losses enter the link budget without materializing the flattened circuit.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: DeviceLibrary,
        loss_multipliers: Optional[Mapping[str, float]] = None,
    ) -> None:
        netlist.validate(device_names=library.names())
        self.netlist = netlist
        self.library = library
        self.loss_multipliers: Dict[str, float] = dict(loss_multipliers or {})
        for name, multiplier in self.loss_multipliers.items():
            if name not in netlist:
                raise KeyError(f"loss multiplier given for unknown instance {name!r}")
            if multiplier < 0:
                raise ValueError(
                    f"loss multiplier for {name!r} must be non-negative, got {multiplier}"
                )
        self.graph = self._build_graph()

    # -- graph construction --------------------------------------------------------
    def _instance_loss_db(self, name: str) -> float:
        device = self.library.get(self.netlist.device_of(name))
        multiplier = self.loss_multipliers.get(name, 1.0)
        return device.insertion_loss_db * multiplier

    def _build_graph(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph()
        for name, inst in self.netlist.instances.items():
            graph.add_node(name, device=inst.device, role=inst.role)
        for src, dst in self.netlist.edge_list():
            # The tiny epsilon breaks ties in favour of longer paths so the critical
            # path always extends through lossless devices down to the detector.
            graph.add_edge(src, dst, loss_db=self._instance_loss_db(dst) + 1e-9)
        return graph

    # -- analyses -------------------------------------------------------------------
    def path_insertion_loss_db(self, path: List[str]) -> float:
        """Total insertion loss along an explicit instance path."""
        if not path:
            return 0.0
        total = self._instance_loss_db(path[0])
        for src, dst in zip(path, path[1:]):
            if not self.graph.has_edge(src, dst):
                raise ValueError(f"path step {src!r} -> {dst!r} is not a net")
            total += self.graph.edges[src, dst]["loss_db"]
        return total

    def critical_path(self) -> CriticalPath:
        """Longest (highest-loss) source-to-sink path.

        Uses the weighted longest-path algorithm on the DAG; the source instance's
        own insertion loss is added on top of the edge weights.
        """
        if self.graph.number_of_nodes() == 0:
            return CriticalPath(instances=(), insertion_loss_db=0.0)
        if self.graph.number_of_edges() == 0:
            # Degenerate single-instance circuits: the worst device alone.
            worst = max(self.graph.nodes, key=self._instance_loss_db)
            return CriticalPath(
                instances=(worst,), insertion_loss_db=self._instance_loss_db(worst)
            )
        import networkx as nx

        path = nx.dag_longest_path(self.graph, weight="loss_db")
        loss = nx.dag_longest_path_length(self.graph, weight="loss_db")
        loss += self._instance_loss_db(path[0])
        return CriticalPath(instances=tuple(path), insertion_loss_db=float(loss))

    def total_insertion_loss_db(self) -> float:
        """Convenience accessor for the critical-path loss."""
        return self.critical_path().insertion_loss_db

    def level_of(self, name: str) -> int:
        """Topological (ASAP) level of an instance; level 0 holds the sources."""
        levels = self.netlist.topological_levels()
        for idx, group in enumerate(levels):
            if name in group:
                return idx
        raise KeyError(f"unknown instance {name!r}")

    def longest_path_from(self, source: str) -> CriticalPath:
        """Longest-loss path starting at a specific source instance."""
        if source not in self.netlist:
            raise KeyError(f"unknown instance {source!r}")
        import networkx as nx

        best_path: List[str] = [source]
        best_loss = self._instance_loss_db(source)
        for sink in self.netlist.sinks():
            if sink == source:
                continue
            for path in nx.all_simple_paths(self.graph, source, sink):
                loss = self.path_insertion_loss_db(path)
                if loss > best_loss:
                    best_loss = loss
                    best_path = list(path)
        return CriticalPath(instances=tuple(best_path), insertion_loss_db=best_loss)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitDAG(netlist={self.netlist.name!r}, "
            f"nodes={self.graph.number_of_nodes()}, edges={self.graph.number_of_edges()})"
        )
