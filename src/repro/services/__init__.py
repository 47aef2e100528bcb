"""OS services — activities providing file system, paging and networking.

Like in M3/M3x/M3v, services are ordinary activities on user tiles:
they receive requests over DTU channels and hand out capabilities
(e.g. memory gates onto file extents) instead of copying data through
themselves wherever possible.
"""

from repro.services.fsdata import BlockAllocator, FsImage, Inode, InodeKind
from repro.services.m3fs import FsClient, FsOp, M3fsService
from repro.services.net import NetClient, NetOp, NetService
from repro.services.pager import PagerService

__all__ = [
    "BlockAllocator",
    "FsImage",
    "Inode",
    "InodeKind",
    "FsOp",
    "M3fsService",
    "FsClient",
    "PagerService",
    "NetService",
    "NetClient",
    "NetOp",
]
