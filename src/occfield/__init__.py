"""occfield: self-supervised semantic occupancy fields at desk scale.

Pipeline: synthesize a scene with an exact occupancy oracle, simulate
multi-timestep scans, generate balanced 4D positive/negative queries along
sensor rays, train an implicit field (contracted-BEV feature grid + MLP),
and evaluate with voxel IoU and first-hit RayIoU.
"""

from .geometry import (
    ContractionParams,
    FourierConfig,
    contract_axis,
)
from .pointcloud import (
    UNLABELED,
    ClassTable,
    PointCloud,
    read_class_table,
    read_pointcloud,
    write_pointcloud,
)
from .scene import (
    Box,
    Cylinder,
    GroundSlab,
    ScanSpec,
    SceneSpec,
    VoxelVolume,
    raycast_scan,
    read_voxel_volume,
    voxelize_ground_truth,
    write_voxel_volume,
)
from .supervision import (
    QueryBatch,
    SamplingConfig,
    build_query_set,
    read_query_batch,
    validate_against_oracle,
    write_query_batch,
)
from .bev import (
    BevGrid,
    splat_pointcloud,
)
from .field import (
    FieldModel,
    LossReport,
    TrainConfig,
    backward,
    forward_batch,
    init_field_model,
    log_frequency_weights,
    loss,
    read_field_model,
    rays_from_pointcloud,
    train,
    train_rendering_baseline,
    write_field_model,
)
from .metrics import (
    MetricsReport,
    RayIoUConfig,
    iou,
    predict_volume,
    ray_iou,
    rays_from_scan,
)

__version__ = "0.1.0"
