"""Virtual network embedding for dataflow applications on wireless mesh substrates.

The package maps directed graphs of nano-services and channels onto a shared
substrate of compute nodes and lossy links, routing each channel with anypath
(multi-receiver broadcast) forwarding and pricing routes by expected anypath
transmission time.

Each name is imported from the module that defines it.  The routing and
embedding core (``netmodel``, ``anypath``, ``embedder``, ``metrics`` and
``windowing``) uses only the standard library; ``scenario``, the simulation,
and ``cli`` need numpy.
"""

__version__ = "0.1.0"
